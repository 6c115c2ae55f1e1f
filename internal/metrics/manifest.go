package metrics

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"aiac/internal/fault"
)

// Manifest is the per-run record that makes a telemetry file
// self-describing: a full configuration echo, the execution environment,
// and the run's outcome. It is the first line of every JSONL export.
type Manifest struct {
	// Name is a caller-chosen run label (e.g. "aiacrun" or an experiment id).
	Name string `json:"name,omitempty"`
	// CreatedAt is the wall-clock start time (RFC 3339).
	CreatedAt string `json:"created_at,omitempty"`
	// Host environment. NumCPU / GoMaxProcs make wall-clock figures
	// interpretable across hosts.
	GitRev     string `json:"git_rev,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	OS         string `json:"os,omitempty"`
	Arch       string `json:"arch,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`

	// Configuration echo. Problem/Cluster names are set by the caller (the
	// engine only sees interfaces); everything else is filled by engine.Run.
	Mode        string  `json:"mode,omitempty"`
	P           int     `json:"p,omitempty"`
	Problem     string  `json:"problem,omitempty"`
	Components  int     `json:"components,omitempty"`
	Halo        int     `json:"halo,omitempty"`
	Cluster     string  `json:"cluster,omitempty"`
	Tol         float64 `json:"tol,omitempty"`
	MaxIter     int     `json:"max_iter,omitempty"`
	MaxTime     float64 `json:"max_time,omitempty"`
	Detection   string  `json:"detection,omitempty"`
	GaussSeidel bool    `json:"gauss_seidel,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	// LB echoes the balancing policy when enabled.
	LB *LBManifest `json:"lb,omitempty"`
	// FaultSpec echoes the fault plan ("" = no faults); FaultSeed its seed.
	FaultSpec string `json:"fault_spec,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// MetricsPeriod is the sampler period in virtual seconds (0 = every
	// iteration).
	MetricsPeriod float64 `json:"metrics_period,omitempty"`

	// Deprecated: Sim is never set. It described the windowed virtual-time
	// scheduler, which no longer exists; the field stays only because the
	// frozen benchmark reads it (bench/tracing.go:241) and goes with the
	// vt-table1-par workload (ROADMAP item 3(d)).
	Sim *SimManifest `json:"sim,omitempty"`

	// Dist records a distributed (multi-OS-process) run: the run identity
	// and, in a worker's manifest, which worker recorded it.
	Dist *DistManifest `json:"dist,omitempty"`

	// Outcome is sealed by FinishRun when the run completes.
	Outcome *Outcome `json:"outcome,omitempty"`
}

// Deprecated: SimManifest is what is left of the windowed scheduler's run
// record: the three fields the frozen benchmark reads (bench/metrics.go:215).
type SimManifest struct {
	Windows            int64   `json:"windows,omitempty"`
	SingleGroupWindows int64   `json:"single_group_windows,omitempty"`
	MeanWindowWidth    float64 `json:"mean_window_width,omitempty"`
}

// DistManifest describes one view of a distributed run. The coordinator's
// manifest — the one that heads the merged run — has Role "coordinator";
// each worker's sink carries Role "worker" and the worker's own identity.
type DistManifest struct {
	RunID   string `json:"run_id"`
	Workers int    `json:"workers"`
	Role    string `json:"role"`
	// Worker, Ranks and Pid identify a worker's export (Role "worker").
	Worker int   `json:"worker,omitempty"`
	Ranks  []int `json:"ranks,omitempty"`
	Pid    int   `json:"pid,omitempty"`
}

// LBManifest echoes a load-balancing policy.
type LBManifest struct {
	Period    int     `json:"period"`
	MinKeep   int     `json:"min_keep"`
	Threshold float64 `json:"threshold"`
	Lambda    float64 `json:"lambda"`
	Estimator string  `json:"estimator"`
	Smoothing float64 `json:"smoothing,omitempty"`
}

// Outcome is how the run ended, in both virtual and wall time.
type Outcome struct {
	Converged bool `json:"converged"`
	TimedOut  bool `json:"timed_out,omitempty"`
	// Canceled marks a run stopped by an external cancel request (service
	// DELETE, aiacrun signal handler) before convergence; its partial
	// telemetry and manifest are still valid.
	Canceled    bool    `json:"canceled,omitempty"`
	Time        float64 `json:"time_seconds"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	TotalIters  int     `json:"total_iterations"`
	TotalWork   float64 `json:"total_work"`
	MaxResidual float64 `json:"max_residual"`

	LBTransfers  int `json:"lb_transfers,omitempty"`
	LBRejects    int `json:"lb_rejects,omitempty"`
	LBCompsMoved int `json:"lb_components_moved,omitempty"`
	LBRetries    int `json:"lb_retries,omitempty"`

	BoundaryMsgs  int `json:"boundary_messages"`
	SuppressedSnd int `json:"suppressed_sends,omitempty"`

	// TraceDropped counts trace events discarded by the trace log's memory
	// cap (see trace.Log.SetCap); 0 when tracing is off or unbounded.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`

	Faults fault.Stats `json:"faults"`
}

// FillHost stamps the manifest with the execution environment: wall-clock
// start, Go version, GOOS/GOARCH, and the VCS revision when the binary
// carries build info. Already-set fields are kept (so tests can pin them).
func (m *Manifest) FillHost() {
	if m.CreatedAt == "" {
		m.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if m.GoVersion == "" {
		m.GoVersion = runtime.Version()
	}
	if m.OS == "" {
		m.OS = runtime.GOOS
	}
	if m.Arch == "" {
		m.Arch = runtime.GOARCH
	}
	if m.GitRev == "" {
		m.GitRev = vcsRevision()
	}
	if m.NumCPU == 0 {
		m.NumCPU = runtime.NumCPU()
	}
	if m.GoMaxProcs == 0 {
		m.GoMaxProcs = runtime.GOMAXPROCS(0)
	}
}

// vcsRevision reads the binary's build info once: every run a service
// builds stamps its manifest, and the build info does not change.
var vcsRevision = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			if len(kv.Value) > 12 {
				return kv.Value[:12]
			}
			return kv.Value
		}
	}
	return ""
})
