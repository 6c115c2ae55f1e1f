package obs

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSchedulerPrometheusQueueAndSheds scrapes an idle scheduler: per-tenant
// queue depths (label values escaped), the shed counter after a quota
// rejection, and zeroed run counters — all without running a solver.
func TestSchedulerPrometheusQueueAndSheds(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := newIdleScheduler(reg, SchedulerConfig{MaxQueuedPerTenant: 2})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(quickSpec(`ten"ant`)); err != nil {
			t.Fatal(err)
		}
	}
	var full ErrQueueFull
	if _, err := s.Submit(quickSpec(`ten"ant`)); !errors.As(err, &full) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(quickSpec("other")); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE aiac_sched_queue_depth gauge",
		`aiac_sched_queue_depth{tenant="other"} 1`,
		`aiac_sched_queue_depth{tenant="ten\"ant"} 2`,
		"# TYPE aiac_sched_running gauge",
		"aiac_sched_sheds_total 1\n",
		"aiac_sched_started_total 0\n",
		`aiac_sched_submit_to_start_seconds_bucket{le="+Inf"} 0`,
		"aiac_sched_submit_to_start_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
	// Sorted tenant labels make the scrape deterministic; "other" < `ten"ant`.
	if strings.Index(out, `tenant="other"`) > strings.Index(out, `tenant="ten\"ant"`) {
		t.Errorf("tenant labels not sorted:\n%s", out)
	}
	if s.Sheds() != 1 {
		t.Fatalf("Sheds() = %d, want 1", s.Sheds())
	}
}

// TestSchedulerPrometheusSubmitToStart runs one real solve and requires the
// started counter and the submit-to-start histogram to have recorded it.
func TestSchedulerPrometheusSubmitToStart(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := NewScheduler(reg, SchedulerConfig{Workers: 1})
	defer s.Close()
	id, err := s.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, id, StateDone)

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"aiac_sched_started_total 1\n",
		"aiac_sched_submit_to_start_seconds_count 1\n",
		`aiac_sched_submit_to_start_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
}

// TestRegistryArtifactsRecovered: the record of a finished traced run lists
// its sidecars, and a reopened registry recovers the listing from disk even
// when the stored manifest predates the field.
func TestRegistryArtifactsRecovered(t *testing.T) {
	root := t.TempDir()
	reg, _ := OpenRegistry(root)
	s := NewScheduler(reg, SchedulerConfig{Workers: 1})
	spec := quickSpec("t")
	spec.Trace = true
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := waitState(t, reg, id, StateDone)
	s.Close()
	want := []string{"metrics.jsonl", "trace.csv"}
	if got := strings.Join(rec.Artifacts, " "); got != strings.Join(want, " ") {
		t.Fatalf("terminal record artifacts = %v, want %v", rec.Artifacts, want)
	}

	// Simulate a manifest written by an older version: strip the field on
	// disk, then reopen. The first read must rebuild it from the files.
	b, err := os.ReadFile(filepath.Join(reg.Dir(id), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.Replace(string(b),
		`"artifacts": [`, `"unused": [`, 1)
	if stripped == string(b) {
		t.Fatal("manifest.json does not list artifacts")
	}
	if err := os.WriteFile(filepath.Join(reg.Dir(id), "manifest.json"), []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	reg2, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	rec2, ok := reg2.Get(id)
	if !ok {
		t.Fatal("run lost on reopen")
	}
	if got := strings.Join(rec2.Artifacts, " "); got != strings.Join(want, " ") {
		t.Fatalf("rescanned artifacts = %v, want %v", rec2.Artifacts, want)
	}
}

// TestServiceTraceAndMetricsRoutes exercises the two new HTTP surfaces:
// GET /runs/{id}/trace serves the trace.csv sidecar (404 for untraced or
// unknown runs) and GET /metrics scrapes the scheduler.
func TestServiceTraceAndMetricsRoutes(t *testing.T) {
	_, _, base := startService(t, t.TempDir())

	spec := quickSpec("t")
	spec.Trace = true
	traced := submitAndWait(t, base, spec)
	plain := submitAndWait(t, base, quickSpec("t"))

	resp, err := http.Get(base + "/runs/" + traced + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("trace content type = %q", ct)
	}
	if !strings.HasPrefix(string(body), "t0,t1,node,to,kind,iter,note") {
		t.Fatalf("trace body does not start with the CSV header: %.80s", body)
	}

	if code := httpJSON(t, "GET", base+"/runs/"+plain+"/trace", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET trace of untraced run = %d, want 404", code)
	}
	if code := httpJSON(t, "GET", base+"/runs/nope/trace", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET trace of unknown run = %d, want 404", code)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE aiac_sched_queue_depth gauge",
		"# TYPE aiac_sched_sheds_total counter",
		"aiac_sched_started_total 2\n",
		"aiac_sched_submit_to_start_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, out)
		}
	}
}
