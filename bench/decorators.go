package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aiac/internal/dtime"
	"aiac/internal/iterative"
	"aiac/internal/runenv"
)

// The traced pass sees the program only through seams it already exports:
// the Problem and Runner fields of aiac.Config, DistWorkerOptions.WrapConn
// and the http.Client's transport. Nothing inside the program is edited.

// kernelCounters aggregates the calls into one Problem. Ranks call the
// kernel concurrently on the real-time backends and under SimWorkers, hence
// atomics.
type kernelCounters struct {
	calls atomic.Int64
	work  atomic.Int64 // Newton iterations: whole numbers in a float64
	ns    atomic.Int64
}

type tracedProblem struct {
	iterative.Problem
	c *kernelCounters
}

func (p tracedProblem) Update(j int, old []float64, get func(i int) []float64, out []float64) float64 {
	t0 := time.Now()
	w := p.Problem.Update(j, old, get, out)
	p.c.ns.Add(int64(time.Since(t0)))
	p.c.calls.Add(1)
	p.c.work.Add(int64(w))
	return w
}

// tracedPairProblem forwards the optional fused update too, so a decorated
// solve takes the same kernel path, and gives the same bits, as a plain one.
type tracedPairProblem struct {
	tracedProblem
	pair iterative.PairUpdater
}

func (p tracedPairProblem) UpdatePair(j1, j2 int, old1, old2 []float64, get func(i int) []float64, out1, out2 []float64) (float64, float64) {
	t0 := time.Now()
	w1, w2 := p.pair.UpdatePair(j1, j2, old1, old2, get, out1, out2)
	p.c.ns.Add(int64(time.Since(t0)))
	p.c.calls.Add(1)
	p.c.work.Add(int64(w1 + w2))
	return w1, w2
}

func traceProblem(p iterative.Problem, c *kernelCounters) iterative.Problem {
	tp := tracedProblem{Problem: p, c: c}
	if pair, ok := p.(iterative.PairUpdater); ok {
		return tracedPairProblem{tracedProblem: tp, pair: pair}
	}
	return tp
}

// rankCounters is what one rank's body did during one op. Only the body's
// own goroutine writes it.
type rankCounters struct {
	start, end                   time.Time
	work, sends, recvs           int64
	workWait, recvWait, sendTime time.Duration
}

// tracedRunner hands each process body a counting Env. With timed set it
// also keeps the wall seconds a body spent inside Work, RecvWait and Send;
// under vtime those calls yield to other coroutines, so the wall inside them
// belongs to someone else and only the counts mean anything.
type tracedRunner struct {
	inner runenv.Runner
	timed bool
	ranks []rankCounters // of the most recent Run
}

func (t *tracedRunner) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	t.ranks = make([]rankCounters, len(bodies))
	wrapped := make([]runenv.Body, len(bodies))
	for i, body := range bodies {
		c := &t.ranks[i]
		wrapped[i] = func(env runenv.Env) {
			c.start = time.Now()
			body(&tracedEnv{Env: env, c: c, timed: t.timed})
			c.end = time.Now()
		}
	}
	return t.inner.Run(cfg, wrapped)
}

type tracedEnv struct {
	runenv.Env
	c     *rankCounters
	timed bool
}

func (e *tracedEnv) Work(units float64) {
	e.c.work++
	if !e.timed {
		e.Env.Work(units)
		return
	}
	t0 := time.Now()
	e.Env.Work(units)
	e.c.workWait += time.Since(t0)
}

func (e *tracedEnv) Send(to, kind int, payload any, bytes int) float64 {
	e.c.sends++
	if !e.timed {
		return e.Env.Send(to, kind, payload, bytes)
	}
	t0 := time.Now()
	arrival := e.Env.Send(to, kind, payload, bytes)
	e.c.sendTime += time.Since(t0)
	return arrival
}

func (e *tracedEnv) Recv() (runenv.Msg, bool) {
	e.c.recvs++
	return e.Env.Recv()
}

func (e *tracedEnv) RecvWait() (runenv.Msg, bool) {
	e.c.recvs++
	if !e.timed {
		return e.Env.RecvWait()
	}
	t0 := time.Now()
	m, ok := e.Env.RecvWait()
	e.c.recvWait += time.Since(t0)
	return m, ok
}

// maxCapturedFrames bounds the message frames kept for the codec probes.
const maxCapturedFrames = 4096

// wireCounters aggregates every worker connection of one dist op.
type wireCounters struct {
	frames, bytesOut, bytesIn atomic.Int64
	writeNs                   atomic.Int64
	firstMsg                  atomic.Int64 // UnixNano of the first message frame written, 0 = none yet

	mu       sync.Mutex
	captured [][]byte // whole message frames, header included
}

// tracedConn counts what a worker puts on, and takes off, its coordinator
// connection. The worker writes each frame with a single Write (see
// dtime.WriteFrame), so writes are frames.
type tracedConn struct {
	net.Conn
	c *wireCounters
}

func (t tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.Conn.Write(p)
	t.c.writeNs.Add(int64(time.Since(t0)))
	t.c.frames.Add(1)
	t.c.bytesOut.Add(int64(n))
	if typ, _, wireLen, derr := dtime.DecodeFrame(p, dtime.MaxFrame); derr == nil && wireLen == len(p) && typ == dtime.FrameMsg {
		t.c.firstMsg.CompareAndSwap(0, t0.UnixNano())
		t.c.mu.Lock()
		if len(t.c.captured) < maxCapturedFrames {
			t.c.captured = append(t.c.captured, append([]byte(nil), p...))
		}
		t.c.mu.Unlock()
	}
	return n, err
}

func (t tracedConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.c.bytesIn.Add(int64(n))
	return n, err
}

// httpCounters is what the clients of svc-closed saw on the wire.
type httpCounters struct {
	mu       sync.Mutex
	submitS  []float64 // POST /runs: request sent to response headers
	sseBytes int64
	sseRuns  int64
	shed     int64 // 429 answers
}

type tracedTransport struct {
	inner http.RoundTripper
	c     *httpCounters
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	d := time.Since(t0).Seconds()
	t.c.mu.Lock()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		t.c.shed++
	case req.Method == http.MethodPost:
		t.c.submitS = append(t.c.submitS, d)
	case strings.HasSuffix(req.URL.Path, "/events"):
		t.c.sseRuns++
		resp.Body = &countingBody{ReadCloser: resp.Body, c: t.c}
	}
	t.c.mu.Unlock()
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	c *httpCounters
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.mu.Lock()
	b.c.sseBytes += int64(n)
	b.c.mu.Unlock()
	return n, err
}
