package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"aiac/internal/metrics"
	"aiac/internal/report"
)

func startService(t *testing.T, root string) (*Service, *Server, string) {
	t.Helper()
	svc, err := NewService(ServiceConfig{Root: root, Scheduler: SchedulerConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeService("127.0.0.1:0", svc)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close(time.Second)
		svc.Close()
	})
	return svc, srv, "http://" + srv.Addr()
}

func httpJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func submitAndWait(t *testing.T, base string, spec RunSpec) string {
	t.Helper()
	var created struct{ ID string }
	if code := httpJSON(t, "POST", base+"/runs", spec, &created); code != http.StatusCreated {
		t.Fatalf("POST /runs = %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var rec RunRecord
		httpJSON(t, "GET", base+"/runs/"+created.ID, nil, &rec)
		if rec.State.Terminal() {
			if rec.State != StateDone {
				t.Fatalf("run %s ended %s: %s", created.ID, rec.State, rec.Error)
			}
			return created.ID
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never finished", created.ID)
	return ""
}

func TestServiceLifecycleOverHTTP(t *testing.T) {
	root := t.TempDir()
	svc, _, base := startService(t, root)

	// readiness precedes any submission
	var ready struct{ Ready bool }
	if code := httpJSON(t, "GET", base+"/readyz", nil, &ready); code != 200 || !ready.Ready {
		t.Fatalf("/readyz = %d ready=%v", code, ready.Ready)
	}

	id := submitAndWait(t, base, quickSpec("alice"))

	var list []RunRecord
	httpJSON(t, "GET", base+"/runs?tenant=alice", nil, &list)
	if len(list) != 1 || list[0].ID != id || list[0].Outcome == nil {
		t.Fatalf("list = %+v", list)
	}

	resp, err := http.Get(base + "/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "CONVERGED") {
		t.Fatalf("report = %d %q...", resp.StatusCode, string(body[:min(len(body), 80)]))
	}

	// unknown run and bad spec produce clean errors
	if code := httpJSON(t, "GET", base+"/runs/01AAAAAAAAAAAAAAAAAAAAAAAA", nil, nil); code != 404 {
		t.Fatalf("GET unknown run = %d", code)
	}
	var oops map[string]string
	for _, bad := range badSpecs {
		if code := httpJSON(t, "POST", base+"/runs", bad.spec, &oops); code != 400 || !strings.Contains(oops["error"], bad.msg) {
			t.Fatalf("bad spec %+v = %d %v, want 400 saying %q", bad.spec, code, oops, bad.msg)
		}
	}
	if n := len(svc.Registry().List("", "")); n != 1 {
		t.Fatalf("%d records after the rejected specs, want the one accepted run", n)
	}
	// a removed knob is an unknown field, named in the answer
	stale := map[string]any{"tenant": "alice", "n": 16, "sim_workers": 2}
	if code := httpJSON(t, "POST", base+"/runs", stale, &oops); code != 400 || !strings.Contains(oops["error"], "sim_workers") {
		t.Fatalf("spec with sim_workers = %d %v", code, oops)
	}
	if code := httpJSON(t, "DELETE", base+"/runs/"+id, nil, nil); code != http.StatusConflict {
		t.Fatalf("DELETE finished run = %d, want 409", code)
	}
}

// TestServiceSSEReplayDeterministic: two GETs of a finished run's event
// stream return byte-identical SSE, and the stream accumulates back into
// the stored telemetry.
func TestServiceSSEReplayDeterministic(t *testing.T) {
	root := t.TempDir()
	svc, _, base := startService(t, root)
	id := submitAndWait(t, base, quickSpec("t"))

	get := func() []byte {
		resp, err := http.Get(base + "/runs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("content type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := get(), get()
	if !bytes.Equal(a, b) {
		t.Fatal("two replays of the same finished run differ")
	}

	frames, err := report.ReadSSE(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	got, phase, err := report.Accumulate(frames)
	if err != nil {
		t.Fatal(err)
	}
	if phase != metrics.PhaseDone {
		t.Fatalf("terminal phase %q", phase)
	}
	stored, err := svc.Registry().LoadRun(id)
	if err != nil {
		t.Fatal(err)
	}
	if report.Render(got, report.Options{}) != report.Render(stored, report.Options{}) {
		t.Fatal("SSE-accumulated run renders differently from the stored artifact")
	}
}

// TestServiceLiveSSEFollow: a follower attached while the run executes
// receives frames to a terminal phase without reconnecting.
func TestServiceLiveSSEFollow(t *testing.T) {
	root := t.TempDir()
	_, _, base := startService(t, root)

	// slow rtime run so the follower attaches mid-flight
	var created struct{ ID string }
	spec := RunSpec{Tenant: "t", N: 16, T: 0.5, Tol: 1e-300, Backend: "rtime", Speedup: 2}
	if code := httpJSON(t, "POST", base+"/runs", spec, &created); code != 201 {
		t.Fatalf("POST = %d", code)
	}
	resp, err := http.Get(base + "/runs/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The run can't converge; it ends by MaxTime... no — T=0.5 at speedup 2
	// is ~0.25 wall s of evolution, after which residual can floor at 0 and
	// converge, or we cancel it below. Cancel after a few frames arrive.
	buf := make([]byte, 1)
	got := &bytes.Buffer{}
	for got.Len() < 200 { // read a couple of frames
		n, err := resp.Body.Read(buf)
		if n > 0 {
			got.Write(buf[:n])
		}
		if err != nil {
			break
		}
	}
	httpJSON(t, "DELETE", base+"/runs/"+created.ID, nil, nil)
	rest, _ := io.ReadAll(resp.Body) // stream must terminate after cancel
	got.Write(rest)

	frames, err := report.ReadSSE(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("live follow saw no frames")
	}
	if frames[0].Event != report.FrameManifest {
		t.Fatalf("first live frame = %q, want manifest", frames[0].Event)
	}
}

// TestServiceLiveSSEKeepalive: a live stream with nothing to say gets a
// keepalive comment every sseKeepalive, and still ends when its run seals.
func TestServiceLiveSSEKeepalive(t *testing.T) {
	prev := sseKeepalive
	sseKeepalive = 20 * time.Millisecond
	// registered first, so it runs after the service has shut down
	t.Cleanup(func() { sseKeepalive = prev })

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

	// a slow run holds the only worker, so the next one stays queued and
	// its stream idle
	slow := RunSpec{Tenant: "t", N: 16, T: 1, Tol: 1e-300, Backend: "rtime", Speedup: 0.05}
	var blocker, queued struct{ ID string }
	if code := httpJSON(t, "POST", base+"/runs", slow, &blocker); code != 201 {
		t.Fatalf("POST slow = %d", code)
	}
	waitState(t, svc.Registry(), blocker.ID, StateRunning)
	if code := httpJSON(t, "POST", base+"/runs", quickSpec("t"), &queued); code != 201 {
		t.Fatalf("POST queued = %d", code)
	}
	resp, err := http.Get(base + "/runs/" + queued.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	const comment = ": keepalive\n\n"
	got := &bytes.Buffer{}
	buf := make([]byte, 256)
	for strings.Count(got.String(), comment) < 3 {
		n, err := resp.Body.Read(buf)
		got.Write(buf[:n])
		if err != nil {
			t.Fatalf("idle stream ended after %q: %v", got.String(), err)
		}
	}
	// free the worker: the queued run executes, seals, and the stream ends
	httpJSON(t, "DELETE", base+"/runs/"+blocker.ID, nil, nil)
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
	got.Write(rest)
	frames, err := report.ReadSSE(got)
	if err != nil {
		t.Fatal(err)
	}
	_, phase, err := report.Accumulate(frames)
	if err != nil || phase != metrics.PhaseDone {
		t.Fatalf("stream ended in phase %q (err %v), want %q", phase, err, metrics.PhaseDone)
	}
}

// TestServiceRestartRecoversRuns: a new service over the same root lists
// every completed run and serves its artifacts; interrupted runs read lost.
func TestServiceRestartRecoversRuns(t *testing.T) {
	root := t.TempDir()
	svc1, srv1, base1 := startService(t, root)
	var ids []string
	for i := 0; i < 3; i++ {
		spec := quickSpec("t")
		spec.Seed = int64(i + 1)
		ids = append(ids, submitAndWait(t, base1, spec))
	}
	// leave one run queued at shutdown: it must come back lost
	idle := newIdleScheduler(svc1.Registry(), SchedulerConfig{})
	queuedID, err := idle.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close(time.Second)
	svc1.Close()

	_, _, base2 := startService(t, root)
	var list []RunRecord
	httpJSON(t, "GET", base2+"/runs", nil, &list)
	if len(list) != 4 {
		t.Fatalf("after restart: %d runs, want 4", len(list))
	}
	for _, id := range ids {
		var rec RunRecord
		if code := httpJSON(t, "GET", base2+"/runs/"+id, nil, &rec); code != 200 {
			t.Fatalf("GET %s after restart = %d", id, code)
		}
		if rec.State != StateDone || rec.Outcome == nil {
			t.Fatalf("recovered run %s = %+v", id, rec)
		}
		resp, err := http.Get(base2 + "/runs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || len(b) == 0 {
			t.Fatalf("replay of recovered run %s = %d (%d bytes)", id, resp.StatusCode, len(b))
		}
	}
	var rec RunRecord
	httpJSON(t, "GET", base2+"/runs/"+queuedID, nil, &rec)
	if rec.State != StateLost {
		t.Fatalf("queued-at-shutdown run = %s, want lost", rec.State)
	}
}

// TestServiceQuotaOverHTTP: queue quota surfaces as 429.
func TestServiceQuotaOverHTTP(t *testing.T) {
	root := t.TempDir()
	svc, err := NewService(ServiceConfig{Root: root,
		Scheduler: SchedulerConfig{Workers: 1, MaxQueuedPerTenant: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeService("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(time.Second); svc.Close() }()
	base := "http://" + srv.Addr()

	// a slow run occupies the only worker; the next two queue and trip the
	// quota
	slow := RunSpec{Tenant: "t", N: 16, T: 1, Tol: 1e-300, Backend: "rtime", Speedup: 1}
	var created struct{ ID string }
	if code := httpJSON(t, "POST", base+"/runs", slow, &created); code != 201 {
		t.Fatalf("POST slow = %d", code)
	}
	slowID := created.ID
	// wait until it holds the worker so the next submissions stay queued
	deadline := time.Now().Add(10 * time.Second)
	for {
		var rec RunRecord
		httpJSON(t, "GET", base+"/runs/"+slowID, nil, &rec)
		if rec.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow run never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code := httpJSON(t, "POST", base+"/runs", quickSpec("t"), nil); code != 201 {
		t.Fatalf("first queued = %d", code)
	}
	if code := httpJSON(t, "POST", base+"/runs", quickSpec("t"), nil); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota = %d, want 429", code)
	}
	httpJSON(t, "DELETE", base+"/runs/"+slowID, nil, nil)
}
