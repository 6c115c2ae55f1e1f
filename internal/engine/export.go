package engine

import (
	"encoding/json"
	"io"
)

// Summary is the JSON-serializable digest of a Result (the trajectories
// themselves are omitted; export them separately if needed).
type Summary struct {
	Time          float64   `json:"time_seconds"`
	Converged     bool      `json:"converged"`
	TimedOut      bool      `json:"timed_out"`
	Canceled      bool      `json:"canceled,omitempty"`
	NodeIters     []int     `json:"node_iterations"`
	NodeWork      []float64 `json:"node_work"`
	NodeResid     []float64 `json:"node_residuals"`
	FinalCount    []int     `json:"final_counts"`
	TotalIters    int       `json:"total_iterations"`
	TotalWork     float64   `json:"total_work"`
	MaxResidual   float64   `json:"max_residual"`
	LBTransfers   int       `json:"lb_transfers"`
	LBRejects     int       `json:"lb_rejects"`
	LBCompsMoved  int       `json:"lb_components_moved"`
	BoundaryMsgs  int       `json:"boundary_messages"`
	SuppressedSnd int       `json:"suppressed_sends"`
}

// Summary extracts the digest.
func (r *Result) Summary() Summary {
	return Summary{
		Time: r.Time, Converged: r.Converged, TimedOut: r.TimedOut, Canceled: r.Canceled,
		NodeIters: r.NodeIters, NodeWork: r.NodeWork, NodeResid: r.NodeResid,
		FinalCount: r.FinalCount, TotalIters: r.TotalIters, TotalWork: r.TotalWork,
		MaxResidual: r.MaxResidual, LBTransfers: r.LBTransfers,
		LBRejects: r.LBRejects, LBCompsMoved: r.LBCompsMoved,
		BoundaryMsgs: r.BoundaryMsgs, SuppressedSnd: r.SuppressedSnd,
	}
}

// WriteJSON writes the result digest as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Summary())
}
