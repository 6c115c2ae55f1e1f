package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"aiac"
	"aiac/internal/metrics"
)

// svcSession is one start of the control plane on the run's pre-seeded
// registry root, with the clients' shared HTTP connection pool.
type svcSession struct {
	h         *harness
	svc       *aiac.Service
	srv       *aiac.ObsServer
	base      string
	transport *http.Transport
	client    *http.Client    // the clients' shared, untraced HTTP client
	bodies    [][]byte        // POST /runs body of op i
	scratch   []*bytes.Buffer // per client: the event stream of its current op
	lastID    [2]string       // per client: a run it sealed, for deep
}

// openService is svc-closed's set-up. A set-up rep is a restart: its
// registry root already holds the run's pre-seeded sealed runs, which the
// service rescans before it reports ready. The reps share that root and leave
// it as they found it; the timed window's thousands go to a root of their
// own, or the later reps would rescan them.
func openService(h *harness, rep bool) (session, error) {
	var root string
	var err error
	if rep {
		root, err = h.seededRegistry()
	} else {
		root, err = os.MkdirTemp(h.root, "registry-")
	}
	if err != nil {
		return nil, err
	}
	s, err := startService(h, root)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func startService(h *harness, root string) (*svcSession, error) {
	svc, err := aiac.NewService(aiac.ServiceConfig{Root: root, Scheduler: aiac.SchedulerConfig{Workers: 2}})
	if err != nil {
		return nil, err
	}
	srv, err := aiac.ServeService("127.0.0.1:0", svc)
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &svcSession{
		h: h, svc: svc, srv: srv, base: "http://" + srv.Addr(),
		transport: &http.Transport{MaxIdleConnsPerHost: 4},
		scratch:   []*bytes.Buffer{{}, {}},
	}
	s.client = &http.Client{Transport: s.transport}
	if err := s.waitReady(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *svcSession) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service not ready after 10s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *svcSession) close() {
	s.transport.CloseIdleConnections()
	s.srv.Close(2 * time.Second)
	s.svc.Close()
}

// spec generates the i-th submission from the run's seed: the issue's tiny
// solve with its time step scaled by 1 ± dtJitter, alternating between the
// two clients' tenants.
func (s *svcSession) spec(i int) aiac.RunSpec {
	rng := rand.New(rand.NewSource(s.h.seed*1_000_003 + int64(i)))
	return aiac.RunSpec{
		Name: fmt.Sprintf("op-%d", i), Tenant: fmt.Sprintf("client-%d", i&1),
		Mode: "aiac", P: 2, Problem: "brusselator", N: 16, T: 0.5, Tol: 1e-4,
		Dt: 0.02 * (1 + dtJitter*(2*rng.Float64()-1)),
	}
}

func (s *svcSession) prepare(n int) error {
	for i := len(s.bodies); i < n; i++ {
		b, err := json.Marshal(s.spec(i))
		if err != nil {
			return err
		}
		s.bodies = append(s.bodies, b)
	}
	return nil
}

// op submits run i and follows its event stream to the sealed end. Client
// i&1 runs it; the two clients never share an i.
func (s *svcSession) op(i int, tr *tracer) opResult {
	if i >= len(s.bodies) {
		return opResult{err: fmt.Errorf("op %d was not prepared", i)}
	}
	client := s.client
	var ot *opTrace
	if tr != nil {
		client = &http.Client{Transport: tracedTransport{inner: s.transport, c: &tr.http}}
		ot = tr.begin()
		defer ot.end()
	}
	buf := s.scratch[i&1]
	buf.Reset()

	t0 := time.Now()
	id, err := submit(client, s.base, s.bodies[i])
	t1 := time.Now()
	if err == nil {
		err = follow(client, s.base, id, buf)
	}
	t2 := time.Now()
	r := opResult{wall: t2.Sub(t0).Seconds()}
	if err != nil {
		r.err = err
		return r
	}
	s.lastID[i&1] = id

	check := func() {
		out, err := sealedOutcome(buf.Bytes())
		switch {
		case err != nil:
			r.err = err
		case !out.Converged || out.MaxResidual >= 1e-4:
			r.err = fmt.Errorf("run %s sealed unconverged (residual %.3g)", id, out.MaxResidual)
		default:
			r.modelTime = out.Time
			r.counts = opCounts{
				iters: float64(out.TotalIters), boundaryMsgs: float64(out.BoundaryMsgs), suppressed: float64(out.SuppressedSnd),
				lbTransfers: float64(out.LBTransfers), lbCompsMoved: float64(out.LBCompsMoved), lbRetries: float64(out.LBRetries),
			}
		}
	}
	if ot == nil {
		check()
		return r
	}
	ot.check(check)
	if err := ot.service(s, id, t0, t1, t2); err != nil && r.err == nil {
		r.err = err
	}
	return r
}

func submit(c *http.Client, base string, body []byte) (string, error) {
	resp, err := c.Post(base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("POST /runs: %s: %w", resp.Status, err)
	}
	if resp.StatusCode != http.StatusCreated || out.ID == "" {
		return "", fmt.Errorf("POST /runs: %s: %s", resp.Status, out.Error)
	}
	return out.ID, nil
}

func follow(c *http.Client, base, id string, into *bytes.Buffer) error {
	resp, err := c.Get(base + "/runs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := into.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /runs/%s/events: %s", id, resp.Status)
	}
	return nil
}

// sealedOutcome reads the end of a finished event stream: the terminal
// phase frame must say done and the last manifest frame carries the sealed
// outcome.
func sealedOutcome(stream []byte) (*metrics.Outcome, error) {
	if !bytes.HasSuffix(stream, []byte("event: phase\ndata: {\"type\":\"phase\",\"phase\":\"done\"}\n\n")) {
		return nil, errors.New("event stream did not end with phase done")
	}
	marker := []byte("event: manifest\ndata: ")
	at := bytes.LastIndex(stream, marker)
	if at < 0 {
		return nil, errors.New("event stream has no manifest frame")
	}
	data := stream[at+len(marker):]
	if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
		data = data[:nl]
	}
	var frame struct {
		Manifest struct {
			Outcome *metrics.Outcome `json:"outcome"`
		} `json:"manifest"`
	}
	if err := json.Unmarshal(data, &frame); err != nil {
		return nil, fmt.Errorf("manifest frame: %w", err)
	}
	if frame.Manifest.Outcome == nil {
		return nil, errors.New("last manifest frame is not sealed")
	}
	return frame.Manifest.Outcome, nil
}

// service hangs the service-side intervals of a traced op under its root,
// from the record's own stamps:
//
//	harness.op
//	  obs.submit        POST sent to id received
//	  obs.queue         until a pool worker started the run
//	  engine.run        the solve, with the telemetry sink on
//	  obs.seal          artifacts, final record, stream end reaching the client
//	  harness.check
func (ot *opTrace) service(s *svcSession, id string, t0, t1, t2 time.Time) error {
	rec, ok := s.svc.Registry().Get(id)
	if !ok {
		return fmt.Errorf("run %s is not in the registry", id)
	}
	submitted, err1 := time.Parse(time.RFC3339Nano, rec.SubmittedAt)
	started, err2 := time.Parse(time.RFC3339Nano, rec.StartedAt)
	finished, err3 := time.Parse(time.RFC3339Nano, rec.FinishedAt)
	if err := errors.Join(err1, err2, err3); err != nil {
		return fmt.Errorf("run %s: %w", id, err)
	}
	tr, r := ot.tr, ot.tr.rec
	// The record's stamps have no monotonic reading; compare wall to wall.
	t0, t1, t2 = t0.Round(0), t1.Round(0), t2.Round(0)
	// A pool worker can start the run before the POST's answer is back.
	queueFrom := t1
	if started.Before(queueFrom) {
		queueFrom = started
	}
	r.interval(ot.root, ot.op, "obs.submit", -1, t0, queueFrom)
	r.interval(ot.root, ot.op, "obs.queue", -1, queueFrom, started)
	r.interval(ot.root, ot.op, "engine.run", -1, started, finished)
	r.interval(ot.root, ot.op, "obs.seal", -1, finished, t2)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.startDelay = append(tr.startDelay, started.Sub(submitted).Seconds())
	tr.runS = append(tr.runS, finished.Sub(started).Seconds())
	tr.sealToClient = append(tr.sealToClient, t2.Sub(finished).Seconds())
	if st, err := os.Stat(filepath.Join(s.svc.Registry().Dir(id), "metrics.jsonl")); err == nil {
		tr.jsonlBytes, tr.jsonlRuns = tr.jsonlBytes+st.Size(), tr.jsonlRuns+1
	}
	return nil
}

// deep keeps one sealed run's telemetry for the writer probes; the service
// has already had its trace-free say through the stream.
func (s *svcSession) deep(tr *tracer) opResult {
	i := len(s.bodies)
	if err := s.prepare(i + 1); err != nil {
		return opResult{err: err}
	}
	r := s.op(i, nil)
	if r.err != nil {
		return r
	}
	run, err := s.svc.Registry().LoadRun(s.lastID[i&1])
	if err != nil {
		r.err = err
		return r
	}
	tr.mu.Lock()
	tr.run = run
	tr.mu.Unlock()
	return r
}

// seedRegistry fills a fresh registry root with n sealed runs, through the
// service itself, so that every later start has a rescan to do.
func seedRegistry(h *harness, root string, n int) error {
	s, err := startService(h, root)
	if err != nil {
		return err
	}
	defer s.close()
	buf := &bytes.Buffer{}
	for i := 0; i < n; i++ {
		body, err := json.Marshal(s.spec(-1 - i))
		if err != nil {
			return err
		}
		id, err := submit(s.client, s.base, body)
		if err != nil {
			return err
		}
		buf.Reset()
		if err := follow(s.client, s.base, id, buf); err != nil {
			return err
		}
	}
	return nil
}
