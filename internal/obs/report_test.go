package obs

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aiac/internal/engine"
	"aiac/internal/metrics"
	"aiac/internal/report"
)

// reportSpecs: load balancing under faults with a trace, ring detection on
// heat, SISC on Poisson, and the quick spec.
var reportSpecs = map[string]RunSpec{
	"lb-faults-trace": {Tenant: "t", N: 32, T: 0.5, Tol: 1e-5, Cluster: "heterogeneous", LB: true, LBPeriod: 5,
		Faults: "drop=0.05,dup=0.02,reorder=0.02", Trace: true},
	"ring-heat":    {Tenant: "t", Problem: "heat", N: 32, Tol: 1e-6, Ring: true},
	"sisc-poisson": {Tenant: "t", Mode: "sisc", Problem: "poisson", N: 32, Tol: 1e-6},
	"quick":        quickSpec("t"),
}

func getReport(t *testing.T, base, id string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestReportIsRenderedOnRequest: GET /runs/{id}/report is the dashboard of
// the stored export. That is the dashboard of the run as its sink held it at
// the end, which the run directory used to store as report.txt.
func TestReportIsRenderedOnRequest(t *testing.T) {
	svc, _, base := startService(t, t.TempDir())
	for name, spec := range reportSpecs {
		t.Run(name, func(t *testing.T) {
			cfg, err := spec.BuildConfig()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Run(cfg); err != nil {
				t.Fatal(err)
			}
			run := cfg.Metrics.Snapshot()
			var buf bytes.Buffer
			if err := run.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			exported, err := metrics.ReadRun(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if report.Render(exported, report.Options{}) != report.Render(run, report.Options{}) {
				t.Fatal("the export renders differently from the run it exports")
			}

			id := submitAndWait(t, base, spec)
			stored, err := svc.Registry().LoadRun(id)
			if err != nil {
				t.Fatal(err)
			}
			code, body := getReport(t, base, id)
			if want := report.Render(stored, report.Options{}); code != http.StatusOK || body != want {
				t.Fatalf("report = %d\n%.400s\nwant\n%.400s", code, body, want)
			}
		})
	}
}

// TestReportNeedsAWholeExport: a queued or running run has no dashboard yet,
// and neither has one whose export was cut short.
func TestReportNeedsAWholeExport(t *testing.T) {
	svc, err := NewService(ServiceConfig{Root: t.TempDir(), Scheduler: SchedulerConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeService("127.0.0.1:0", svc)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(time.Second); svc.Close() })
	base := "http://" + srv.Addr()

	// a slow run holds the only worker, so the next one stays queued
	slow := RunSpec{Tenant: "t", N: 16, T: 1, Tol: 1e-300, Backend: "rtime", Speedup: 0.05}
	var running, queued struct{ ID string }
	if code := httpJSON(t, "POST", base+"/runs", slow, &running); code != http.StatusCreated {
		t.Fatalf("POST slow = %d", code)
	}
	waitState(t, svc.Registry(), running.ID, StateRunning)
	if code := httpJSON(t, "POST", base+"/runs", quickSpec("t"), &queued); code != http.StatusCreated {
		t.Fatalf("POST queued = %d", code)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if code, body := getReport(t, base, id); code != http.StatusNotFound {
			t.Fatalf("report of a run not yet ended = %d %.200s", code, body)
		}
	}
	httpJSON(t, "DELETE", base+"/runs/"+running.ID, nil, nil)
	waitState(t, svc.Registry(), queued.ID, StateDone)

	path := filepath.Join(svc.Registry().Dir(queued.ID), "metrics.jsonl")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1
	for _, cut := range []int{len(whole) - 1, len(whole) - 2, last, last / 2} {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if code, body := getReport(t, base, queued.ID); code != http.StatusNotFound {
			t.Fatalf("report of an export cut to %d of %d bytes = %d %.200s", cut, len(whole), code, body)
		}
	}
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := getReport(t, base, queued.ID); code != http.StatusOK {
		t.Fatalf("report of the whole export = %d", code)
	}
}
