package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"aiac"
	"aiac/internal/metrics"
	"aiac/internal/obs"
)

// buildAiacrun compiles the command once into a temp dir.
func buildAiacrun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aiacrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSigintSealsArtifacts: an interrupted run exits 130 with a flushed
// JSONL whose manifest carries outcome canceled.
func TestSigintSealsArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a child process")
	}
	bin := buildAiacrun(t)
	metricsOut := filepath.Join(t.TempDir(), "run.jsonl")

	// At speedup 0.05 this solve (~0.19 virtual s to convergence) needs
	// close to 4 wall seconds — the interrupt at 300 ms lands mid-run.
	cmd := exec.Command(bin,
		"-mode", "aiac", "-p", "2", "-problem", "brusselator", "-n", "16",
		"-backend", "rtime", "-speedup", "0.05", "-tol", "1e-300",
		"-metrics", metricsOut)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let it get going
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("wait: %v (want exit error 130)", err)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("exit code %d, want 130", code)
	}

	run, rerr := metrics.ReadRunFile(metricsOut)
	if rerr != nil {
		t.Fatalf("interrupted run left unreadable telemetry: %v", rerr)
	}
	out := run.Manifest.Outcome
	if out == nil {
		t.Fatal("interrupted run's manifest has no sealed outcome")
	}
	if !out.Canceled || out.Converged {
		t.Fatalf("outcome = %+v, want canceled", out)
	}
}

// TestBadInputIsOneLine: outside input the solver cannot take is refused in
// one "aiacrun:" line with exit 1, before it reaches a constructor that
// panics on it.
func TestBadInputIsOneLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	bin := buildAiacrun(t)
	for _, args := range [][]string{{"-n", "-5"}, {"-p", "-3"}, {"-T", "-1"}, {"-dt", "5"}} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("aiacrun %v: %v, want exit 1", args, err)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "aiacrun: ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
			t.Errorf("aiacrun %v: stderr %q, want one aiacrun: line", args, msg)
		}
	}
}

// TestUnconvergedRunExitsThree: a run that stops at its iteration bound exits
// 3, with or without -json, so a script can tell it from a solved run (exit 0).
func TestUnconvergedRunExitsThree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	bin := buildAiacrun(t)
	base := []string{"-mode", "aiac", "-p", "2", "-n", "16"}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-maxiter", "5"}, 3},
		{[]string{"-maxiter", "5", "-json"}, 3},
		{nil, 0},
	} {
		args := append(append([]string(nil), base...), c.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("aiacrun %v: %v", args, err)
		}
		if code != c.want {
			t.Errorf("aiacrun %v: exit %d, want %d\n%s", args, code, c.want, out)
		}
	}
}

// TestDistTelemetryEndToEnd: a dist run's -metrics file holds the whole run —
// every rank's samples under the coordinator's sealed manifest — and the
// per-sample fault counts the workers resolved. Ranks 0-1 and 2-3 share a
// worker, so the local fault hook counts the drops on their links.
func TestDistTelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs worker processes")
	}
	bin := buildAiacrun(t)
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "out.jsonl")
	out, err := exec.Command(bin, "-backend", "dist", "-procs", "2", "-p", "4", "-n", "16",
		"-dt", "0.05", "-T", "1", "-speedup", "200", "-maxiter", "500000", "-lb",
		"-faults", "drop=0.05", "-dist-root", dir, "-metrics", metricsOut).CombinedOutput()
	// Exit 3 is a run that stopped unconverged: real-time detection can
	// stall (ROADMAP item 0), and the telemetry must be whole either way.
	if ee, ok := err.(*exec.ExitError); err != nil && !(ok && ee.ExitCode() == 3) {
		t.Fatalf("aiacrun: %v\n%s", err, out)
	}

	run, err := metrics.ReadRunFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if m := run.Manifest; m.Outcome == nil || m.Dist == nil || m.Dist.Role != "coordinator" {
		t.Fatalf("manifest: outcome %+v, dist %+v; want a sealed coordinator manifest", m.Outcome, m.Dist)
	}
	faulted := false
	for rank := 0; rank < 4; rank++ {
		if rank >= len(run.Samples) || len(run.Samples[rank]) == 0 {
			t.Fatalf("no samples of rank %d", rank)
		}
		row := run.Samples[rank]
		faulted = faulted || row[len(row)-1].Faults > 0
	}
	if !faulted {
		t.Errorf("every rank's last sample counts 0 faults; the runtime line counts %v", run.Faults)
	}
}

// TestSameSpecSameArtifactsFromBothDoors: one spec, given to aiacrun as flags
// and to the service's scheduler as a RunSpec, leaves the same trace.csv byte
// for byte and the same metrics.jsonl up to what describes the host and the
// wall clock. There is one translator; this is what that buys.
func TestSameSpecSameArtifactsFromBothDoors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	bin := buildAiacrun(t)
	dir := t.TempDir()
	cliMetrics, cliTrace := filepath.Join(dir, "metrics.jsonl"), filepath.Join(dir, "trace.csv")
	out, err := exec.Command(bin, "-p", "4", "-cluster", "heterogeneous", "-lb",
		"-faults", "drop=0.05,scope=lb", "-fault-seed", "7",
		"-metrics", cliMetrics, "-trace-csv", cliTrace).CombinedOutput()
	if err != nil {
		t.Fatalf("aiacrun: %v\n%s", err, out)
	}

	reg, err := obs.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := obs.NewScheduler(reg, obs.SchedulerConfig{Workers: 1})
	defer sched.Close()
	id, err := sched.Submit(obs.RunSpec{
		Name: "aiacrun", P: 4, Cluster: "heterogeneous", LB: true,
		Faults: "drop=0.05,scope=lb", FaultSeed: 7, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if rec, _ := reg.Get(id); rec.State.Terminal() {
			if rec.State != obs.StateDone {
				t.Fatalf("service run ended %s: %s", rec.State, rec.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service run did not finish")
		}
	}

	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cli, svc := read(cliTrace), read(filepath.Join(reg.Dir(id), "trace.csv"))
	if len(cli) < 10000 || !bytes.Equal(cli, svc) {
		t.Errorf("trace.csv differs: %d bytes from aiacrun, %d from the service", len(cli), len(svc))
	}
	cli, svc = hostless(t, read(cliMetrics)), hostless(t, read(filepath.Join(reg.Dir(id), "metrics.jsonl")))
	if len(cli) < 10000 || !bytes.Equal(cli, svc) {
		t.Errorf("metrics.jsonl differs: %d bytes from aiacrun, %d from the service\n aiacrun: %.400s\n service: %.400s",
			len(cli), len(svc), cli, svc)
	}
}

// hostless drops from a metrics.jsonl's manifest line what differs between
// the two doors on one host: the wall clock, and the VCS revision, which a
// go build of aiacrun carries and a go test binary does not.
func hostless(t *testing.T, jsonl []byte) []byte {
	t.Helper()
	first, rest, _ := bytes.Cut(jsonl, []byte("\n"))
	var line struct {
		Type     string         `json:"type"`
		Manifest map[string]any `json:"manifest"`
	}
	if err := json.Unmarshal(first, &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"created_at", "git_rev"} {
		delete(line.Manifest, k)
	}
	outcome, _ := line.Manifest["outcome"].(map[string]any)
	if outcome == nil {
		t.Fatal("manifest has no outcome")
	}
	delete(outcome, "wall_seconds")
	first, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(first, '\n'), rest...)
}

// TestEverySpecFieldHasAFlag: each JSON field of RunSpec is bound to exactly
// one flag, or is on the short list of fields the command line fills itself —
// so a knob added to the spec cannot silently miss the CLI.
func TestEverySpecFieldHasAFlag(t *testing.T) {
	cliLess := map[string]bool{
		"name":     true, // always "aiacrun"
		"tenant":   true, // a queueing identity; there is no queue
		"max_time": true, // the backend's watchdog default
		"trace":    true, // implied by -trace, -trace-csv, -trace-chrome, -critical-path
	}
	var spec aiac.RunSpec
	fs := flag.NewFlagSet("aiacrun", flag.ContinueOnError)
	bindSpec(fs, &spec)

	jsonName := func(i int) string {
		name, _, _ := strings.Cut(reflect.TypeOf(spec).Field(i).Tag.Get("json"), ",")
		return name
	}
	flagOf := map[string]string{} // JSON field name → the flag that sets it
	fs.VisitAll(func(f *flag.Flag) {
		before := spec
		val := "7" // parses as a string, an int and a float
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			val = "true"
		}
		if err := fs.Set(f.Name, val); err != nil {
			t.Fatalf("-%s %s: %v", f.Name, val, err)
		}
		was, is := reflect.ValueOf(before), reflect.ValueOf(spec)
		moved := 0
		for i := 0; i < is.NumField(); i++ {
			if was.Field(i).Interface() == is.Field(i).Interface() {
				continue
			}
			moved++
			if other, dup := flagOf[jsonName(i)]; dup {
				t.Errorf("-%s and -%s both set %q", other, f.Name, jsonName(i))
			}
			flagOf[jsonName(i)] = f.Name
		}
		if moved != 1 {
			t.Errorf("-%s moved %d spec fields, want 1", f.Name, moved)
		}
	})
	for i := 0; i < reflect.TypeOf(spec).NumField(); i++ {
		name := jsonName(i)
		switch f, bound := flagOf[name]; {
		case bound && cliLess[name]:
			t.Errorf("%q is listed as CLI-less but -%s sets it", name, f)
		case !bound && !cliLess[name]:
			t.Errorf("RunSpec field %q has no flag and is not listed as CLI-less", name)
		}
	}
}
