package dtime

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aiac/internal/rtime"
	"aiac/internal/trace"
)

// WorkerEnv is everything a worker process needs to join a run: where the
// coordinator listens, who the worker is, which ranks it hosts, and where
// its per-process state directory lives. It is passed to spawned processes
// as JSON in the AIAC_DTIME_WORKER environment variable (kilroy-style run
// identity: one run ID, one run directory, one state dir per process).
type WorkerEnv struct {
	Addr     string `json:"addr"`
	RunID    string `json:"run_id"`
	RunDir   string `json:"run_dir"`
	StateDir string `json:"state_dir"`
	Worker   int    `json:"worker"`
	Workers  int    `json:"workers"`
	Ranks    []int  `json:"ranks"`
	Total    int    `json:"total"`
}

// EnvVar is the environment variable that carries a WorkerEnv to a spawned
// worker process. Its presence is what switches a binary into worker mode.
const EnvVar = "AIAC_DTIME_WORKER"

// Encode serializes the WorkerEnv for the spawn environment.
func (w WorkerEnv) Encode() string { return string(marshalJSONFrame(w)) }

// DecodeWorkerEnv parses the AIAC_DTIME_WORKER value.
func DecodeWorkerEnv(s string) (WorkerEnv, error) {
	var w WorkerEnv
	if err := json.Unmarshal([]byte(s), &w); err != nil {
		return WorkerEnv{}, fmt.Errorf("dtime: bad %s: %w", EnvVar, err)
	}
	return w, nil
}

// Process is a spawned worker under coordinator supervision: an OS process
// (see SpawnCommand) or, in tests, a goroutine joined over real TCP.
type Process interface {
	// Wait blocks until the worker exits and returns its terminal error.
	Wait() error
	// Kill forcibly terminates the worker; it must be safe to call more
	// than once and after exit.
	Kill()
}

// Options configures a coordinator run.
type Options struct {
	// Workers is the number of worker processes; Ranks the total number of
	// runenv ranks distributed over them.
	Workers int
	Ranks   int
	// RankWorker assigns each rank to a worker; nil means contiguous
	// blocks with any remainder ranks (e.g. a detector rank) on worker 0.
	RankWorker func(rank int) int
	// Spawn launches worker w. Required.
	Spawn func(w WorkerEnv) (Process, error)
	// RunID names the run ("" = a fresh random id); RunRoot is the
	// directory that holds run directories ("" = os.TempDir()). The run
	// directory RunRoot/RunID gets one state subdirectory per worker.
	RunID   string
	RunRoot string
	// HeartbeatTimeout is how long a silent worker may stay silent before
	// the run fails with a *WorkerError (default 10s). Connect bounds the
	// spawn-to-hello phase (default 30s); Wall bounds the whole run
	// (default 10 min).
	HeartbeatTimeout time.Duration
	Connect          time.Duration
	Wall             time.Duration
	// MaxFrame bounds accepted frame sizes (default MaxFrame).
	MaxFrame int
	// Trace, when non-nil, receives the coordinator's own wire events on a
	// model clock started at the welcome broadcast (origin reported as
	// RunInfo.TraceStart): one Wire span per relayed frame (recv → forward,
	// with byte size) and supervision marks (heartbeats, stop, outcomes).
	// Worker traces shipped via FrameTrace are collected into
	// RunInfo.WorkerTraces for federation by the caller.
	Trace *trace.Log
	// Speedup scales the coordinator's trace clock; it must match the
	// workers' WorkerOptions.Speedup (default rtime.DefaultSpeedup). Only
	// used for tracing.
	Speedup float64
}

// WorkerInfo describes one worker of a completed (or failed) run.
type WorkerInfo struct {
	Worker   int    `json:"worker"`
	Pid      int    `json:"pid,omitempty"`
	Ranks    []int  `json:"ranks"`
	StateDir string `json:"state_dir"`
	ObsAddr  string `json:"obs_addr,omitempty"`
}

// RunInfo is the coordinator's record of a run.
type RunInfo struct {
	RunID   string       `json:"run_id"`
	RunDir  string       `json:"run_dir"`
	Workers []WorkerInfo `json:"workers"`
	// EndTime is the maximum final local clock reported by any worker.
	EndTime float64 `json:"end_time"`
	// StopRequested is true when a worker asked for a global stop (its
	// MaxTime watchdog fired or a body called Stop) before all outcomes
	// were in.
	StopRequested bool `json:"stop_requested,omitempty"`
	// TraceStart is the wall-clock origin (unix nanos) of the coordinator's
	// trace clock — set only when Options.Trace is non-nil.
	TraceStart int64 `json:"trace_start,omitempty"`
	// WorkerTraces holds the causal trace each worker shipped at outcome
	// time (FrameTrace), in arrival order; see trace.Federate.
	WorkerTraces []*trace.ProcTrace `json:"-"`
}

// WorkerError is the typed coordinator-side failure of one worker: a crash
// (connection lost, nonzero exit) or a heartbeat timeout.
type WorkerError struct {
	Worker int
	// Timeout is true when the worker hung — sent nothing past the
	// heartbeat deadline, or took nothing sent to it for half of it — rather
	// than visibly dying.
	Timeout bool
	Err     error
}

func (e *WorkerError) Error() string {
	if e.Timeout {
		return fmt.Sprintf("dtime: worker %d missed heartbeat deadline: %v", e.Worker, e.Err)
	}
	return fmt.Sprintf("dtime: worker %d failed: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// TimeoutError is the typed coordinator-side failure of a whole phase.
type TimeoutError struct {
	Phase string
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("dtime: %s phase exceeded %v", e.Phase, e.After)
}

// NewRunID returns a fresh random run identifier.
func NewRunID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("dtime: run id entropy: %v", err))
	}
	return "run-" + hex.EncodeToString(b[:])
}

// DefaultRankWorker returns the standard rank assignment for p worker
// ranks over n workers: contiguous blocks, with every rank >= p (the
// detector slot) on worker 0, co-located with rank 0.
func DefaultRankWorker(p, workers int) func(rank int) int {
	return func(rank int) int {
		if rank >= p {
			return 0
		}
		w := rank * workers / p
		if w >= workers {
			w = workers - 1
		}
		return w
	}
}

// coordWorker is the coordinator's per-worker state.
type coordWorker struct {
	info WorkerInfo
	proc Process

	// frames reads the worker's frames; the accept goroutine hands it to the
	// worker's reader, and nothing else touches it.
	frames *FrameReader
	// lastBeat is when the worker's last frame arrived (UnixNano): written
	// by its reader, read by the supervision scan.
	lastBeat atomic.Int64

	// mu serializes writes on conn — control frames from the event loop,
	// frames relayed by the other workers' readers — and guards wbuf, the
	// buffer control frames are built in.
	mu         sync.Mutex
	conn       net.Conn
	wbuf       []byte
	writeBound time.Duration
	werr       error // the first failed write; see write

	outcome   []byte
	endTime   float64
	hasResult bool
}

// writeFrame sends one control frame on the worker's connection.
func (cw *coordWorker) writeFrame(typ byte, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.wbuf = AppendFrame(cw.wbuf[:0], typ, payload)
	return cw.write(cw.wbuf)
}

// relay forwards a frame exactly as another worker's reader took it off the
// wire, header included: no re-framing and no copy.
func (cw *coordWorker) relay(frame []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.write(frame)
}

// write puts one whole frame on the connection (established connections
// only; cw.mu held), giving the worker writeBound to take it: a worker that
// stops reading must fail the run under its own name, not hang the reader of
// whoever was sending to it. A failed write may have cut a frame short, so
// the connection carries nothing after it.
func (cw *coordWorker) write(frame []byte) error {
	if cw.conn == nil {
		return errors.New("dtime: worker not connected")
	}
	if cw.werr != nil {
		return fmt.Errorf("dtime: connection broken by an earlier write: %v", cw.werr)
	}
	cw.conn.SetWriteDeadline(time.Now().Add(cw.writeBound))
	_, cw.werr = cw.conn.Write(frame)
	return cw.werr
}

// coordEvent is one occurrence delivered to the coordinator's event loop.
type coordEvent struct {
	worker  int
	typ     byte
	payload []byte // the event's own copy
	err     error  // connection failure (payload nil)
	hung    bool   // err is a relay write the worker did not take in time
	exit    bool   // process exited; err is its exit error
}

// Run executes one distributed run: it creates the run directory tree,
// spawns the workers, relays cross-worker traffic, supervises liveness, and
// returns every worker's outcome blob (indexed by worker) once all of them
// reported. Any worker crash, heartbeat miss or phase timeout aborts the
// run with a typed error after stopping the surviving workers.
func Run(opts Options) ([][]byte, *RunInfo, error) {
	if opts.Workers < 1 {
		return nil, nil, fmt.Errorf("dtime: Workers = %d, need >= 1", opts.Workers)
	}
	if opts.Ranks < opts.Workers {
		return nil, nil, fmt.Errorf("dtime: %d ranks over %d workers leaves some idle", opts.Ranks, opts.Workers)
	}
	if opts.Spawn == nil {
		return nil, nil, errors.New("dtime: Spawn is required")
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 10 * time.Second
	}
	if opts.Connect <= 0 {
		opts.Connect = 30 * time.Second
	}
	if opts.Wall <= 0 {
		opts.Wall = 10 * time.Minute
	}
	if opts.RunID == "" {
		opts.RunID = NewRunID()
	}
	if opts.RunRoot == "" {
		opts.RunRoot = os.TempDir()
	}
	if opts.RankWorker == nil {
		opts.RankWorker = DefaultRankWorker(opts.Ranks, opts.Workers)
	}
	opts.Speedup = rtime.Speedup(opts.Speedup)

	runDir := filepath.Join(opts.RunRoot, opts.RunID)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("dtime: run dir: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("dtime: listen: %w", err)
	}
	defer ln.Close()

	c := &coordinator{
		opts:    opts,
		runDir:  runDir,
		workers: make([]*coordWorker, opts.Workers),
		owner:   make([]int, opts.Ranks),
		events:  make(chan coordEvent, 64),
	}
	for rank := 0; rank < opts.Ranks; rank++ {
		w := opts.RankWorker(rank)
		if w < 0 || w >= opts.Workers {
			return nil, nil, fmt.Errorf("dtime: RankWorker(%d) = %d out of range", rank, w)
		}
		c.owner[rank] = w
	}

	// Spawn every worker with its identity and state directory.
	for i := 0; i < opts.Workers; i++ {
		stateDir := filepath.Join(runDir, fmt.Sprintf("worker-%d", i))
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("dtime: state dir: %w", err)
		}
		var ranks []int
		for rank := 0; rank < opts.Ranks; rank++ {
			if c.owner[rank] == i {
				ranks = append(ranks, rank)
			}
		}
		wenv := WorkerEnv{
			Addr: ln.Addr().String(), RunID: opts.RunID, RunDir: runDir,
			StateDir: stateDir, Worker: i, Workers: opts.Workers,
			Ranks: ranks, Total: opts.Ranks,
		}
		cw := &coordWorker{
			info: WorkerInfo{Worker: i, Ranks: ranks, StateDir: stateDir},
			// Half the heartbeat timeout: a reader blocked in a relay write
			// reads none of its own worker's frames, and that worker's
			// silence must not reach the timeout first.
			writeBound: opts.HeartbeatTimeout / 2,
		}
		c.workers[i] = cw
		proc, err := opts.Spawn(wenv)
		if err != nil {
			c.killAll()
			return nil, nil, fmt.Errorf("dtime: spawn worker %d: %w", i, err)
		}
		cw.proc = proc
		go func(i int) {
			err := proc.Wait()
			c.events <- coordEvent{worker: i, exit: true, err: err}
		}(i)
	}

	blobs, info, err := c.run(ln)
	if err != nil {
		c.killAll()
	}
	// Closing every worker connection unwinds workers that Kill cannot
	// reach (goroutine-spawned ones) and is harmless after a clean exit.
	for _, cw := range c.workers {
		cw.mu.Lock()
		if cw.conn != nil {
			cw.conn.Close()
		}
		cw.mu.Unlock()
	}
	return blobs, info, err
}

type coordinator struct {
	opts    Options
	runDir  string
	workers []*coordWorker
	owner   []int // rank -> worker

	// traceStart anchors the coordinator's trace clock; written once before
	// the reader goroutines start, read concurrently by them.
	traceStart time.Time

	events chan coordEvent
}

// now returns the coordinator's trace clock in model seconds.
func (c *coordinator) now() float64 {
	return time.Since(c.traceStart).Seconds() * c.opts.Speedup
}

// mark records a zero-duration supervision event on the coordinator's trace
// (Node -1: charged to no rank — the critical-path walk ignores it).
func (c *coordinator) mark(note string) {
	if c.opts.Trace == nil {
		return
	}
	t := c.now()
	c.opts.Trace.Add(trace.Event{T0: t, T1: t, Node: -1, To: -1, Kind: trace.Mark, Iter: -1, Note: note})
}

func (c *coordinator) killAll() {
	for _, cw := range c.workers {
		if cw != nil && cw.proc != nil {
			cw.proc.Kill()
		}
	}
}

// accept collects one connection + Hello per worker.
func (c *coordinator) accept(ln net.Listener) error {
	type acceptResult struct {
		worker int
		conn   net.Conn
		frames *FrameReader
		hello  helloBody
		err    error
	}
	results := make(chan acceptResult, c.opts.Workers)
	deadline := time.Now().Add(c.opts.Connect)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	go func() {
		for i := 0; i < c.opts.Workers; i++ {
			conn, err := ln.Accept()
			if err != nil {
				results <- acceptResult{err: err}
				return
			}
			go func(conn net.Conn) {
				conn.SetReadDeadline(deadline)
				frames := NewFrameReader(conn, c.opts.MaxFrame)
				typ, payload, _, err := frames.Next()
				if err == nil && typ != FrameHello {
					err = fmt.Errorf("dtime: expected hello, got frame type %d", typ)
				}
				var h helloBody
				if err == nil {
					err = json.Unmarshal(payload, &h)
				}
				if err != nil {
					conn.Close()
					results <- acceptResult{err: err}
					return
				}
				conn.SetReadDeadline(time.Time{})
				results <- acceptResult{worker: h.Worker, conn: conn, frames: frames, hello: h}
			}(conn)
		}
	}()
	for n := 0; n < c.opts.Workers; n++ {
		select {
		case r := <-results:
			if r.err != nil {
				if ne, ok := r.err.(net.Error); ok && ne.Timeout() {
					return &TimeoutError{Phase: "connect", After: c.opts.Connect}
				}
				return fmt.Errorf("dtime: worker handshake: %w", r.err)
			}
			if r.worker < 0 || r.worker >= len(c.workers) {
				r.conn.Close()
				return fmt.Errorf("dtime: hello from unknown worker %d", r.worker)
			}
			cw := c.workers[r.worker]
			cw.mu.Lock()
			dup := cw.conn != nil
			if !dup {
				cw.conn = r.conn
			}
			cw.mu.Unlock()
			if dup {
				r.conn.Close()
				return fmt.Errorf("dtime: duplicate hello from worker %d", r.worker)
			}
			cw.frames = r.frames
			cw.info.Pid = r.hello.Pid
			cw.info.ObsAddr = r.hello.ObsAddr
			cw.lastBeat.Store(time.Now().UnixNano())
		case ev := <-c.events:
			if ev.exit {
				return &WorkerError{Worker: ev.worker, Err: exitError(ev.err)}
			}
		case <-time.After(time.Until(deadline) + time.Second):
			return &TimeoutError{Phase: "connect", After: c.opts.Connect}
		}
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	return nil
}

func exitError(err error) error {
	if err == nil {
		return errors.New("process exited before reporting an outcome")
	}
	return err
}

// reader pumps one worker's frames: data frames are relayed straight to the
// owning worker's connection (preserving per-source order, which is what
// keeps per-(from,to) FIFO intact end to end); control frames go to the
// event loop, which outlives the frame buffer and so gets a copy.
func (c *coordinator) reader(worker int) {
	cw := c.workers[worker]
	for {
		typ, payload, frame, err := cw.frames.Next()
		if err != nil {
			c.events <- coordEvent{worker: worker, err: err}
			return
		}
		cw.lastBeat.Store(time.Now().UnixNano())
		switch typ {
		case FrameMsg:
			from, to, _, _, _, seq, ok := EnvelopeInfo(payload)
			if !ok || to < 0 || to >= len(c.owner) {
				c.events <- coordEvent{worker: worker, err: fmt.Errorf("dtime: unroutable message frame from worker %d", worker)}
				return
			}
			var t0 float64
			if c.opts.Trace != nil {
				t0 = c.now()
			}
			dst := c.workers[c.owner[to]]
			if err := dst.relay(frame); err != nil {
				// A destination that stopped reading is named here, by the
				// one goroutine that can see it. Any other failure of the
				// destination is surfaced by its own reader; dropping the
				// frame avoids blaming the innocent sender.
				if errors.Is(err, os.ErrDeadlineExceeded) {
					c.events <- coordEvent{worker: dst.info.Worker, hung: true, err: fmt.Errorf("took no relayed frame for %v", dst.writeBound)}
				}
				continue
			}
			if c.opts.Trace != nil {
				// The relay span (recv → forward) on the coordinator's
				// clock. To is -1: the span charges the wire, not the
				// receiving rank — the worker-side delivery record is what
				// the walk uses as the arrival.
				c.opts.Trace.Add(trace.Event{
					T0: t0, T1: c.now(), Node: from, To: -1, Kind: trace.Wire,
					Iter: -1, Seq: seq, Note: fmt.Sprintf("relay to %d (%d B)", to, len(payload)),
				})
			}
		case FrameHeartbeat:
			// lastBeat already bumped
			c.mark(fmt.Sprintf("hb worker %d", worker))
		default:
			// After an outcome or an error nothing meaningful follows; the
			// loop keeps draining heartbeats until the stop handshake closes
			// the conn.
			c.events <- coordEvent{worker: worker, typ: typ, payload: append([]byte(nil), payload...)}
		}
	}
}

// broadcastStop tells every connected worker to unwind.
func (c *coordinator) broadcastStop(abort bool) {
	flag := []byte{0}
	if abort {
		flag[0] = 1
	}
	for _, cw := range c.workers {
		cw.writeFrame(FrameStop, flag)
	}
}

func (c *coordinator) run(ln net.Listener) ([][]byte, *RunInfo, error) {
	info := &RunInfo{RunID: c.opts.RunID, RunDir: c.runDir}
	if err := c.accept(ln); err != nil {
		return nil, info, err
	}
	for _, cw := range c.workers {
		info.Workers = append(info.Workers, cw.info)
	}

	// Release the workers together. The trace clock starts here: the
	// workers' clocks start when the welcome lands moments later, and the
	// wall-clock gap between the origins is exactly what federation's
	// offset normalization removes.
	c.traceStart = time.Now()
	if c.opts.Trace != nil {
		info.TraceStart = c.traceStart.UnixNano()
	}
	welcome := marshalJSONFrame(welcomeBody{RunID: c.opts.RunID})
	for _, cw := range c.workers {
		if err := cw.writeFrame(FrameWelcome, welcome); err != nil {
			return nil, info, &WorkerError{Worker: cw.info.Worker, Err: err}
		}
	}
	for i := range c.workers {
		go c.reader(i)
	}

	hbTick := time.NewTicker(c.opts.HeartbeatTimeout / 4)
	defer hbTick.Stop()
	wall := time.NewTimer(c.opts.Wall)
	defer wall.Stop()

	outcomes := 0
	exited := make([]bool, len(c.workers))
	fail := func(err error) ([][]byte, *RunInfo, error) {
		c.broadcastStop(true)
		return nil, info, err
	}
	for outcomes < len(c.workers) {
		select {
		case ev := <-c.events:
			cw := c.workers[ev.worker]
			switch {
			case ev.exit:
				exited[ev.worker] = true
				// A clean exit races the worker's final frames through the
				// reader; only an exit *error* is conclusive here. An exit
				// without an outcome surfaces as the connection EOF below.
				if ev.err != nil && !cw.hasResult {
					return fail(&WorkerError{Worker: ev.worker, Err: ev.err})
				}
			case ev.err != nil:
				if !cw.hasResult {
					if ev.hung {
						return fail(&WorkerError{Worker: ev.worker, Timeout: true, Err: ev.err})
					}
					return fail(&WorkerError{Worker: ev.worker, Err: fmt.Errorf("connection lost: %w", ev.err)})
				}
			case ev.typ == FrameOutcome:
				d := Dec{B: ev.payload}
				end := d.F64()
				blob := d.Rest()
				if err := d.Err(); err != nil {
					return fail(&WorkerError{Worker: ev.worker, Err: fmt.Errorf("bad outcome frame: %w", err)})
				}
				if !cw.hasResult {
					cw.hasResult = true
					cw.endTime = end
					cw.outcome = blob
					if end > info.EndTime {
						info.EndTime = end
					}
					outcomes++
					c.mark(fmt.Sprintf("outcome worker %d", ev.worker))
				}
			case ev.typ == FrameTrace:
				pt, err := DecodeTraceBlob(ev.payload)
				if err != nil {
					return fail(&WorkerError{Worker: ev.worker, Err: err})
				}
				info.WorkerTraces = append(info.WorkerTraces, pt)
			case ev.typ == FrameError:
				c.mark(fmt.Sprintf("error worker %d", ev.worker))
				return fail(&WorkerError{Worker: ev.worker, Err: errors.New(string(ev.payload))})
			case ev.typ == FrameStop:
				// A worker requested a global stop (watchdog or explicit
				// Stop): relay it to everyone; workers still report
				// outcomes on their way out.
				info.StopRequested = true
				c.mark(fmt.Sprintf("stop-requested worker %d", ev.worker))
				c.broadcastStop(len(ev.payload) > 0 && ev.payload[0] != 0)
			}
		case <-hbTick.C:
			now := time.Now().UnixNano()
			for i, cw := range c.workers {
				silent := time.Duration(now - cw.lastBeat.Load())
				if !cw.hasResult && !exited[i] && silent > c.opts.HeartbeatTimeout {
					return fail(&WorkerError{
						Worker: i, Timeout: true,
						Err: fmt.Errorf("no frame for %v", silent.Round(time.Millisecond)),
					})
				}
			}
		case <-wall.C:
			return fail(&TimeoutError{Phase: "solve", After: c.opts.Wall})
		}
	}

	// All outcomes are in: release the workers and give them a moment to
	// write their state-directory sidecars and exit cleanly.
	c.mark("stop")
	c.broadcastStop(false)
	deadline := time.After(c.opts.HeartbeatTimeout)
	remaining := 0
	for _, done := range exited {
		if !done {
			remaining++
		}
	}
	for remaining > 0 {
		select {
		case ev := <-c.events:
			if ev.exit && !exited[ev.worker] {
				exited[ev.worker] = true
				remaining--
				if ev.err != nil {
					return nil, info, &WorkerError{Worker: ev.worker, Err: fmt.Errorf("exit after outcome: %w", ev.err)}
				}
			}
		case <-deadline:
			c.killAll()
			return nil, info, &TimeoutError{Phase: "shutdown", After: c.opts.HeartbeatTimeout}
		}
	}

	blobs := make([][]byte, len(c.workers))
	for i, cw := range c.workers {
		blobs[i] = cw.outcome
	}
	return blobs, info, nil
}
