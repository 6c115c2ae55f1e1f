package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"aiac/internal/metrics"
)

// The run registry is the durable half of the control plane: one directory
// per run under the registry root, named by the run's ULID, holding
//
//	manifest.json   the RunRecord (spec, tenant, state, timestamps, outcome)
//	metrics.jsonl   the run's telemetry export (written when the run ends)
//	trace.csv       the execution trace of a traced run (likewise)
//
// The dashboard is not stored: GET /runs/{id}/report renders it from
// metrics.jsonl on request.
//
// Opening a registry lists the root and nothing more: each run directory
// enters the in-memory index unread, and its manifest.json is read the first
// time a Get or List reaches it, so a restarted service is ready in the time
// of one directory listing and still recovers every completed run. Runs that
// were queued or running when the previous process died are marked "lost" on
// that first read — their worker is gone, and an honest terminal state beats
// a forever-stale "running".

// RunState is a run's lifecycle state.
type RunState string

const (
	StateQueued   RunState = "queued"
	StateRunning  RunState = "running"
	StateDone     RunState = "done"     // finished (converged or not; see Outcome)
	StateFailed   RunState = "failed"   // the solver returned an error or panicked
	StateCanceled RunState = "canceled" // stopped by DELETE before finishing
	StateLost     RunState = "lost"     // non-terminal at a previous process's death
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateLost:
		return true
	}
	return false
}

// RunRecord is the registry's view of one run: everything a client needs to
// list, inspect or resubmit it. It is the manifest.json sidecar, verbatim.
type RunRecord struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  RunState `json:"state"`
	// Timestamps are wall-clock RFC 3339 with nanoseconds; the load driver
	// computes submit-to-converged latency from them server-side.
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// Error holds the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Spec is the submitted configuration, defaults filled.
	Spec RunSpec `json:"spec"`
	// Outcome is copied from the sealed telemetry manifest when the run
	// ends, so list responses answer "did it converge" without opening
	// the JSONL export.
	Outcome *metrics.Outcome `json:"outcome,omitempty"`
	// Artifacts lists the sidecar files in the run's directory
	// (metrics.jsonl, trace.csv): the ones the run wrote when it ended.
	// The first read after a restart rebuilds it from disk, so a restarted
	// service recovers a traced run's trace.csv exactly like its telemetry
	// export.
	Artifacts []string `json:"artifacts,omitempty"`
}

// Registry is the durable run index. All methods are safe for concurrent
// use.
type Registry struct {
	root string

	mu sync.Mutex
	// runs maps every known run ID to its record. A nil record is a run
	// directory found on open whose manifest has not been read yet (lookup).
	runs map[string]*RunRecord
}

// OpenRegistry creates root if needed and lists it: every directory named
// by a ULID enters the index unread. It reads no manifest; Get and List read
// each one on first use.
func OpenRegistry(root string) (*Registry, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("obs: registry root: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("obs: registry root: %w", err)
	}
	r := &Registry{root: root, runs: make(map[string]*RunRecord, len(entries))}
	for _, e := range entries {
		if e.IsDir() && ValidID(e.Name()) {
			r.runs[e.Name()] = nil
		}
	}
	return r, nil
}

// Root returns the registry root directory.
func (r *Registry) Root() string { return r.root }

// Dir returns the artifact directory of a run.
func (r *Registry) Dir(id string) string { return filepath.Join(r.root, id) }

// lookup returns the indexed record of id, reading its manifest.json on
// first use; nil means no such run. A directory without a parseable manifest
// naming it (a half-written run dir, junk) holds no run and leaves the index.
// A run read in a non-terminal state is marked lost, and the demotion is
// written back, so the next process agrees. r.mu must be held: it also keeps
// two first reads of one run from writing its demotion at once.
func (r *Registry) lookup(id string) *RunRecord {
	rec, ok := r.runs[id]
	if !ok || rec != nil {
		return rec
	}
	dir := r.Dir(id)
	rec = &RunRecord{}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil || json.Unmarshal(b, rec) != nil || rec.ID != id {
		delete(r.runs, id)
		return nil
	}
	if !rec.State.Terminal() {
		rec.State = StateLost
		writeRecord(dir, rec) // best-effort demotion
	}
	// Disk is the source of truth for sidecars: a manifest written before
	// the run finished (or by an older version without the field) would
	// otherwise hide an existing trace.csv forever.
	rec.Artifacts = ScanArtifacts(dir)
	r.runs[id] = rec
	return rec
}

// Put creates or updates a run's record, durably (atomic tmp+rename of its
// manifest.json) and in the index.
func (r *Registry) Put(rec *RunRecord) error {
	dir := r.Dir(rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeRecord(dir, rec); err != nil {
		return err
	}
	cp := *rec
	r.mu.Lock()
	r.runs[rec.ID] = &cp
	r.mu.Unlock()
	return nil
}

func writeRecord(dir string, rec *RunRecord) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ".manifest.json.tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "manifest.json"))
}

// Get returns a copy of a run's record.
func (r *Registry) Get(id string) (RunRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.lookup(id)
	if rec == nil {
		return RunRecord{}, false
	}
	return *rec, true
}

// List returns all records sorted by ID (= submission order, ULIDs being
// time-ordered), optionally filtered by tenant and/or state ("" = any). The
// first List after a restart reads every run's manifest.
func (r *Registry) List(tenant string, state RunState) []RunRecord {
	r.mu.Lock()
	out := make([]RunRecord, 0, len(r.runs))
	for id := range r.runs {
		rec := r.lookup(id)
		if rec == nil {
			continue
		}
		if tenant != "" && rec.Tenant != tenant {
			continue
		}
		if state != "" && rec.State != state {
			continue
		}
		out = append(out, *rec)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// artifactNames are the sidecar files a run directory can hold besides its
// manifest, in the order Artifacts lists them.
var artifactNames = []string{"metrics.jsonl", "trace.csv"}

// ScanArtifacts lists which known sidecar files exist in a run directory.
func ScanArtifacts(dir string) []string {
	var out []string
	for _, name := range artifactNames {
		if st, err := os.Stat(filepath.Join(dir, name)); err == nil && st.Mode().IsRegular() {
			out = append(out, name)
		}
	}
	return out
}

// LoadRun reads a run's telemetry export.
func (r *Registry) LoadRun(id string) (*metrics.Run, error) {
	return metrics.ReadRunFile(filepath.Join(r.Dir(id), "metrics.jsonl"))
}
