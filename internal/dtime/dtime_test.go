package dtime

import (
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"aiac/internal/runenv"
)

// testOptions returns coordinator options for n loopback workers over
// 2 ranks (one per worker unless n == 1), with tight supervision bounds so
// a failing test reports instead of hanging.
func testOptions(t *testing.T, workers int, fn func(w WorkerEnv) error) Options {
	t.Helper()
	return Options{
		Workers:          workers,
		Ranks:            2,
		Spawn:            GoroutineSpawner(fn),
		RunRoot:          t.TempDir(),
		HeartbeatTimeout: 5 * time.Second,
		Connect:          5 * time.Second,
		Wall:             30 * time.Second,
	}
}

// solver returns a RunWorker callback executing the given per-rank bodies
// with raw-[]byte payloads; the blob it reports is blobFn's result.
func solver(bodies map[int]runenv.Body, blobFn func() []byte) func(w WorkerEnv) error {
	return func(w WorkerEnv) error {
		return RunWorker(w, WorkerOptions{}, func(pr runenv.PartialRunner) ([]byte, error) {
			local := make(map[int]runenv.Body, len(w.Ranks))
			for _, r := range w.Ranks {
				local[r] = bodies[r]
			}
			pr.RunRanks(runenv.Config{Procs: w.Total}, local)
			if blobFn == nil {
				return nil, nil
			}
			return blobFn(), nil
		})
	}
}

// TestPingPongAcrossWorkers runs one rank per worker and bounces a payload
// across the coordinator relay: the wire path end to end, with raw byte
// payloads (no codec).
func TestPingPongAcrossWorkers(t *testing.T) {
	var got []byte
	bodies := map[int]runenv.Body{
		0: func(env runenv.Env) {
			env.Send(1, 1, []byte("ping"), 4)
			m, ok := env.RecvWait()
			if !ok {
				return
			}
			got = append([]byte(nil), m.Payload.([]byte)...)
		},
		1: func(env runenv.Env) {
			m, ok := env.RecvWait()
			if !ok {
				return
			}
			reply := append(m.Payload.([]byte), []byte("-pong")...)
			env.Send(0, 1, reply, len(reply))
		},
	}
	blobs, info, err := Run(testOptions(t, 2, solver(bodies, func() []byte { return []byte("done") })))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping-pong" {
		t.Fatalf("rank 0 received %q, want %q", got, "ping-pong")
	}
	for w, b := range blobs {
		if string(b) != "done" {
			t.Fatalf("worker %d blob %q", w, b)
		}
	}
	if len(info.Workers) != 2 || info.StopRequested {
		t.Fatalf("unexpected run info %+v", info)
	}
}

// TestStopPropagation verifies a body's Stop reaches ranks on other
// workers: rank 1 blocks in RecvWait with no message ever coming, and
// unwinds only because rank 0's stop crosses the coordinator.
func TestStopPropagation(t *testing.T) {
	released := make(chan struct{})
	bodies := map[int]runenv.Body{
		0: func(env runenv.Env) {
			env.Sleep(1) // let rank 1 park in RecvWait first
			env.Stop()
		},
		1: func(env runenv.Env) {
			if _, ok := env.RecvWait(); ok {
				t.Error("rank 1 received a message from nowhere")
			}
			close(released)
		},
	}
	_, info, err := Run(testOptions(t, 2, solver(bodies, nil)))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	default:
		t.Fatal("rank 1 still blocked after the run")
	}
	if !info.StopRequested {
		t.Fatal("coordinator did not record the stop request")
	}
}

var errBoom = errors.New("boom")

// TestWorkerCrashBeforeConnect pins the lifecycle guarantee for the
// earliest crash: a worker that dies before dialing in surfaces as a typed
// *WorkerError — promptly, not after the connect timeout.
func TestWorkerCrashBeforeConnect(t *testing.T) {
	idle := map[int]runenv.Body{0: func(runenv.Env) {}, 1: func(runenv.Env) {}}
	opts := testOptions(t, 2, func(w WorkerEnv) error {
		if w.Worker == 1 {
			return errBoom
		}
		return solver(idle, nil)(w)
	})
	opts.Connect = 30 * time.Second
	start := time.Now()
	_, _, err := Run(opts)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("Run returned %v, want a *WorkerError", err)
	}
	if we.Worker != 1 || we.Timeout || !errors.Is(err, errBoom) {
		t.Fatalf("wrong failure attribution: %+v", we)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("crash took %v to surface (connect timeout leak?)", d)
	}
}

// TestWorkerCrashMidSolve kills a worker after the handshake — connection
// torn down mid-run, process gone without an outcome — and requires the
// coordinator to fail with a typed *WorkerError instead of hanging.
func TestWorkerCrashMidSolve(t *testing.T) {
	idle := map[int]runenv.Body{
		0: func(env runenv.Env) { env.RecvWait() }, // waits forever; unwound by the stop
		1: func(runenv.Env) {},
	}
	opts := testOptions(t, 2, func(w WorkerEnv) error {
		if w.Worker != 1 {
			return solver(idle, nil)(w)
		}
		// A hand-rolled worker that completes the handshake, then dies.
		conn, err := net.Dial("tcp", w.Addr)
		if err != nil {
			return err
		}
		if err := WriteFrame(conn, FrameHello, marshalJSONFrame(helloBody{Worker: 1, Pid: os.Getpid(), Ranks: w.Ranks})); err != nil {
			return err
		}
		if _, _, err := ReadFrame(conn, 0); err != nil {
			return err
		}
		return conn.Close() // crash: no outcome, no error frame, clean exit
	})
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(opts)
		done <- err
	}()
	select {
	case err := <-done:
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("Run returned %v, want a *WorkerError", err)
		}
		if we.Worker != 1 {
			t.Fatalf("failure blamed on worker %d, want 1", we.Worker)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator hung on a mid-solve worker crash")
	}
}

// TestHeartbeatTimeout pins the liveness guarantee: a worker that stays
// connected but falls silent is declared dead within the heartbeat
// timeout, with the timeout flagged on the typed error.
func TestHeartbeatTimeout(t *testing.T) {
	idle := map[int]runenv.Body{
		0: func(env runenv.Env) { env.RecvWait() },
		1: func(runenv.Env) {},
	}
	opts := testOptions(t, 2, func(w WorkerEnv) error {
		if w.Worker != 1 {
			return solver(idle, nil)(w)
		}
		conn, err := net.Dial("tcp", w.Addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := WriteFrame(conn, FrameHello, marshalJSONFrame(helloBody{Worker: 1, Pid: os.Getpid(), Ranks: w.Ranks})); err != nil {
			return err
		}
		// Silent but alive: never beat, never close; unwind when the
		// coordinator abandons us and closes the connection.
		var buf [1]byte
		for {
			if _, err := conn.Read(buf[:]); err != nil {
				return nil
			}
		}
	})
	opts.HeartbeatTimeout = time.Second
	start := time.Now()
	_, _, err := Run(opts)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("Run returned %v, want a *WorkerError", err)
	}
	if we.Worker != 1 || !we.Timeout {
		t.Fatalf("wrong failure attribution: %+v", we)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("silent worker took %v to detect", d)
	}
}

// TestRunIDUnique sanity-checks the run identifier source.
func TestRunIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRunID()
		if seen[id] {
			t.Fatalf("duplicate run id %q", id)
		}
		seen[id] = true
	}
}

// TestWorkerEnvRoundTrip pins the spawn-environment encoding.
func TestWorkerEnvRoundTrip(t *testing.T) {
	w := WorkerEnv{
		Addr: "127.0.0.1:9", RunID: "run-abc", RunDir: "/tmp/run-abc",
		StateDir: "/tmp/run-abc/worker-1", Worker: 1, Workers: 2,
		Ranks: []int{2, 3}, Total: 5,
	}
	got, err := DecodeWorkerEnv(w.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", w) {
		t.Fatalf("round trip changed the env:\n%+v\n%+v", got, w)
	}
}
