package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"aiac/internal/brusselator"
	"aiac/internal/dtime"
	"aiac/internal/engine"
	"aiac/internal/fault"
	"aiac/internal/obs"
	"aiac/internal/report"
	"aiac/internal/rtime"
	"aiac/internal/runenv"
	"aiac/internal/solver"
	"aiac/internal/trace"
	"aiac/internal/vtime"
)

// A probe times one layer's public entry point alone, on inputs the traced
// pass captured or the workload's own parameters, so that a layer too small
// to see in an op's spans still has a figure a change can move. Probes run
// after the windows and are never part of an op.

// perCall is the p10, over batches, of the time one call of f takes, in
// nanoseconds.
func perCall(batches, calls int, f func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for range calls {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	return percentile(per, 10)
}

// runProbes runs the probes of the layers the workload crosses. A probe that
// cannot run is reported and reads 0.
func runProbes(h *harness, w *workload, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "aiacbench: probe %s: %v\n", what, err)
	}
	if w.service() {
		if tr.run != nil {
			out["metrics.jsonl_write_us"] = perCall(5, 20, func() { tr.run.WriteJSONL(io.Discard) }) / 1e3
			out["report.render_us"] = perCall(5, 20, func() { report.Render(tr.run, report.Options{}) }) / 1e3
		}
		if err := probeRegistry(h, out); err != nil {
			fail("registry", err)
		}
		return out
	}

	if err := probeKernel(w.solver.params, out); err != nil {
		fail("kernel", err)
	}
	if w.solver.real {
		out["rtime.pingpong_us"] = perCall(5, 1, func() { pingPong(rtime.Runner{Speedup: speedup}, 400) }) / 400 / 1e3
	} else {
		// One round trip is two Sends and two RecvWaits.
		out["vtime.event_ns"] = perCall(5, 1, func() { pingPong(vtime.Runner{}, 20000) }) / (4 * 20000)
	}
	if tr.log != nil {
		out["trace.write_csv_ms"] = perCall(3, 1, func() { tr.log.WriteCSV(io.Discard) }) / 1e6
	}
	if len(tr.workerTraces) > 0 {
		workers := make([]trace.ProcTrace, len(tr.workerTraces))
		for _, pt := range tr.workerTraces {
			workers[pt.Proc] = *pt
		}
		if _, err := trace.Federate(workers, nil); err != nil {
			fail("federate", err)
		} else {
			out["trace.federate_ms"] = perCall(3, 1, func() { trace.Federate(workers, nil) }) / 1e6
		}
	}
	if len(tr.frames) > 0 {
		if err := probeWire(tr.frames, out); err != nil {
			fail("wire", err)
		}
	}
	return out
}

// probeKernel times the fused two-cell window solve at the workload's step
// count, on neighbouring cells of the reference solution.
func probeKernel(p brusselator.Params, out map[string]float64) error {
	ref, _, err := brusselator.Reference(p)
	if err != nil {
		return err
	}
	steps := p.Steps()
	outA, outB := make([]float64, len(ref[1])), make([]float64, len(ref[2]))
	outA[0], outA[1], outB[0], outB[1] = ref[1][0], ref[1][1], ref[2][0], ref[2][1]
	ns := perCall(10, 200, func() {
		solver.BrussWindowPair(p.Dt, p.C(), p.NewtonTol, p.MaxNewton, steps,
			ref[0], ref[2], ref[1], outA, ref[1], ref[3], ref[2], outB)
	})
	out["solver.window_ns_per_step"] = ns / float64(2*steps)
	return nil
}

// pingPong bounces one message between two processes of a runtime.
func pingPong(r runenv.Runner, rounds int) {
	r.Run(runenv.Config{Procs: 2}, []runenv.Body{
		func(env runenv.Env) {
			for range rounds {
				env.Send(1, 0, nil, 8)
				env.RecvWait()
			}
		},
		func(env runenv.Env) {
			for range rounds {
				env.RecvWait()
				env.Send(0, 0, nil, 8)
			}
		},
	})
}

// discardConn is a connection whose writes cost nothing, so that what a
// wrapper around it costs is all that is left.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// probeWire replays the message frames the workers wrote through the three
// layers a message crosses on its way out and in: the frame codec, the
// payload codec and the (here fault-free) fault connection.
func probeWire(frames [][]byte, out map[string]float64) error {
	type message struct {
		kind    int
		data    []byte
		decoded any
	}
	msgs := make([]message, len(frames))
	var payloadBytes int
	for i, f := range frames {
		_, body, _, err := dtime.DecodeFrame(f, dtime.MaxFrame)
		if err != nil {
			return err
		}
		d := dtime.Dec{B: body}
		d.U32() // from
		d.U32() // to
		kind := int(d.U32())
		d.U32() // modelled bytes
		d.F64() // send time
		d.U64() // sequence
		data := d.Bytes()
		if err := d.Err(); err != nil {
			return err
		}
		v, err := engine.Codec{}.DecodePayload(kind, data)
		if err != nil {
			return err
		}
		msgs[i] = message{kind: kind, data: data, decoded: v}
		payloadBytes += len(data)
	}
	n := float64(len(frames))

	var scratch []byte
	out["dtime.frame_codec_ns"] = perCall(5, 1, func() {
		for _, f := range frames {
			typ, body, _, _ := dtime.DecodeFrame(f, dtime.MaxFrame)
			dtime.EnvelopeInfo(body)
			scratch = dtime.AppendFrame(scratch[:0], typ, body)
		}
	}) / n
	out["codec.decode_ns_per_msg"] = perCall(5, 1, func() {
		for _, m := range msgs {
			engine.Codec{}.DecodePayload(m.kind, m.data)
		}
	}) / n
	out["codec.encode_ns_per_msg"] = perCall(5, 1, func() {
		for _, m := range msgs {
			engine.Codec{}.EncodePayload(m.kind, m.decoded)
		}
	}) / n
	out["codec.bytes_per_msg"] = float64(payloadBytes) / n

	inj, err := fault.Plan{Seed: 1}.Compile(3)
	if err != nil {
		return err
	}
	conn := fault.NewConn(discardConn{}, inj, fault.ConnOptions{
		FrameLen: func(buf []byte) (int, error) { return dtime.FrameLen(buf, dtime.MaxFrame) },
		Classify: func(frame []byte) (from, to, kind, bytes int, ok bool) {
			_, body, _, err := dtime.DecodeFrame(frame, dtime.MaxFrame)
			if err != nil {
				return 0, 0, 0, 0, false
			}
			from, to, kind, bytes, _, _, ok = dtime.EnvelopeInfo(body)
			return from, to, kind, bytes, ok
		},
	})
	out["fault.conn_passthrough_ns_per_frame"] = perCall(5, 1, func() {
		for _, f := range frames {
			conn.Write(f)
		}
	}) / n
	return nil
}

// probeRegistry times the control plane's storage and hand-off paths alone:
// a record write, a scheduler submission, the replay of a sealed run's event
// stream, and the rescan a start performs on the run's registry.
func probeRegistry(h *harness, out map[string]float64) error {
	dir, err := os.MkdirTemp(h.root, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg, err := obs.OpenRegistry(dir)
	if err != nil {
		return err
	}
	rec := obs.RunRecord{Tenant: "probe", State: obs.StateDone, Spec: obs.RunSpec{Name: "probe"}}
	out["obs.registry_put_us"] = perCall(5, 40, func() {
		rec.ID = obs.NewID(time.Now())
		reg.Put(&rec)
	}) / 1e3

	sched := obs.NewScheduler(reg, obs.SchedulerConfig{Workers: 1})
	spec := obs.RunSpec{Mode: "aiac", P: 2, Problem: "brusselator", N: 16, T: 0.5, Tol: 1e-4}
	out["obs.scheduler_submit_us"] = perCall(5, 20, func() { sched.Submit(spec) }) / 1e3
	sched.Close()

	root, err := h.seededRegistry()
	if err != nil {
		return err
	}
	var runs int
	rescan := perCall(3, 1, func() {
		if r, err := obs.OpenRegistry(root); err == nil {
			runs = len(r.List("", ""))
		}
	})
	if runs == 0 {
		return fmt.Errorf("registry %s holds no runs", root)
	}
	out["obs.rescan_ms_per_1k_runs"] = rescan / 1e6 * 1000 / float64(runs)

	svc, err := obs.NewService(obs.ServiceConfig{Root: root, Scheduler: obs.SchedulerConfig{Workers: 1}})
	if err != nil {
		return err
	}
	defer svc.Close()
	done := svc.Registry().List("", obs.StateDone)
	if len(done) == 0 {
		return fmt.Errorf("registry %s holds no finished run", root)
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	req := httptest.NewRequest(http.MethodGet, "/runs/"+done[0].ID+"/events", nil)
	out["obs.sse_replay_us"] = perCall(5, 20, func() { mux.ServeHTTP(httptest.NewRecorder(), req) }) / 1e3
	return nil
}
