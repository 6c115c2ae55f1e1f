package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the quick-scale golden reports")

// TestAllQuick runs every experiment at quick scale and holds each report to
// its shape check and, byte for byte, to testdata/quick/<id>.txt. The
// reports are deterministic at any worker count, so a change that moves a
// number shows here as a diff of the report that printed it; regenerate with
// `make quick-golden` only when the change is meant to move it.
func TestAllQuick(t *testing.T) {
	// The full sweep exceeds the race-suite time budget on small hosts
	// (>1h instrumented on one core); it runs un-instrumented in tier-1,
	// and race coverage of the pool/engine lives in the targeted -race
	// grids (test-par, test-dist, test-svc).
	if raceEnabled {
		t.Skip("full experiment sweep skipped under -race")
	}
	dir := filepath.Join("testdata", "quick")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range All(Quick) {
		got := r.String()
		if !r.Pass {
			t.Errorf("%s: shape check fails:\n%s", r.ID, got)
		}
		path := filepath.Join(dir, r.ID+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v (run `make quick-golden` to create it)", err)
			continue
		}
		if string(want) != got {
			t.Errorf("%s drifted from %s.\n--- got ---\n%s--- want ---\n%s", r.ID, path, got, want)
		}
	}
}
