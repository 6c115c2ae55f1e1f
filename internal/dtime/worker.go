package dtime

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"aiac/internal/rtime"
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// WorkerOptions configures a worker's runtime.
type WorkerOptions struct {
	// Codec serializes application payloads for the wire. Nil is allowed
	// only when remote payloads are already []byte (they are delivered as
	// raw bytes).
	Codec runenv.PayloadCodec
	// Speedup scales model time to wall time exactly as rtime.Runner does
	// (default rtime.DefaultSpeedup).
	Speedup float64
	// WrapConn, when non-nil, wraps the coordinator connection — the hook
	// the fault-injecting wrapper (internal/fault.Conn) plugs into.
	WrapConn func(net.Conn) net.Conn
	// ObsAddr is this worker's observability listen address, reported to
	// the coordinator in the hello frame.
	ObsAddr string
	// Heartbeat is the liveness beacon period (default 500ms); Dial bounds
	// the connect + handshake phase (default 10s); MaxFrame bounds accepted
	// frames (default MaxFrame).
	Heartbeat time.Duration
	Dial      time.Duration
	MaxFrame  int
	// Trace, when non-nil, is this worker's causal trace log, shipped whole
	// to the coordinator (FrameTrace) just before the outcome. The caller
	// hands the same log to RunRanks (runenv.Config.Trace): the world adds a
	// Wire record per remote delivery to it, so compute and wire events
	// share one stream.
	Trace *trace.Log
}

// RunWorker joins the run described by wenv, executes run with a
// runenv.PartialRunner covering this worker's ranks, reports the returned
// outcome blob to the coordinator, and waits for the global stop before
// returning. It is the worker-process half of the dtime backend; the
// coordinator half is Run.
func RunWorker(wenv WorkerEnv, opts WorkerOptions, run func(pr runenv.PartialRunner) ([]byte, error)) error {
	opts.Speedup = rtime.Speedup(opts.Speedup)
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 500 * time.Millisecond
	}
	if opts.Dial <= 0 {
		opts.Dial = 10 * time.Second
	}

	raw, err := net.DialTimeout("tcp", wenv.Addr, opts.Dial)
	if err != nil {
		return fmt.Errorf("dtime: dial coordinator: %w", err)
	}
	conn := raw
	if opts.WrapConn != nil {
		conn = opts.WrapConn(raw)
	}
	defer conn.Close()

	rt := &wrt{opts: opts, conn: conn, frames: NewFrameReader(conn, opts.MaxFrame), stopCh: make(chan struct{})}
	hello := marshalJSONFrame(helloBody{
		Worker: wenv.Worker, Pid: os.Getpid(), Ranks: wenv.Ranks, ObsAddr: opts.ObsAddr,
	})
	if err := rt.writeFrame(FrameHello, hello); err != nil {
		return fmt.Errorf("dtime: hello: %w", err)
	}
	raw.SetReadDeadline(time.Now().Add(opts.Dial))
	typ, wpayload, _, err := rt.frames.Next()
	if err != nil {
		return fmt.Errorf("dtime: welcome: %w", err)
	}
	if typ != FrameWelcome {
		return fmt.Errorf("dtime: expected welcome, got frame type %d", typ)
	}
	var welcome welcomeBody
	if err := json.Unmarshal(wpayload, &welcome); err != nil {
		return fmt.Errorf("dtime: welcome body: %w", err)
	}
	raw.SetReadDeadline(time.Time{})

	start := time.Now() // the model clock starts at welcome
	rt.world = rtime.NewWorld(wenv.Total, wenv.Ranks, opts.Speedup, start, rt)
	go rt.reader()
	go rt.heartbeat()

	blob, runErr := run(rt)
	if runErr == nil {
		rt.mu.Lock()
		runErr = rt.fatalErr
		rt.mu.Unlock()
	}
	if runErr != nil {
		rt.writeFrame(FrameError, []byte(runErr.Error()))
		return runErr
	}

	if opts.Trace != nil {
		pt := &trace.ProcTrace{
			Proc:    wenv.Worker,
			RunID:   welcome.RunID,
			Ranks:   wenv.Ranks,
			Start:   start.UnixNano(),
			Speedup: opts.Speedup,
			Dropped: opts.Trace.Dropped(),
			Events:  opts.Trace.Events(),
		}
		if err := rt.writeFrame(FrameTrace, EncodeTraceBlob(pt)); err != nil {
			return fmt.Errorf("dtime: report trace: %w", err)
		}
	}

	e := Enc{}
	e.F64(rt.finalTime())
	e.B = append(e.B, blob...)
	if err := rt.writeFrame(FrameOutcome, e.B); err != nil {
		return fmt.Errorf("dtime: report outcome: %w", err)
	}
	// Hold the process open until the coordinator releases everyone: other
	// workers may still be solving and depend on frames relayed through
	// their (and our) live connections.
	<-rt.stopCh
	return nil
}

// wrt is the worker's transport: the rtime.Link that carries the hosted
// world's sends to remote ranks, and its stop requests, over the coordinator
// connection, with the reader feeding what comes back into the world. Ranks,
// clocks and message queues are the world's business.
type wrt struct {
	opts  WorkerOptions
	conn  net.Conn
	world *rtime.World

	// frames reads the coordinator's frames; after the handshake only the
	// reader goroutine touches it. What it returns is valid until its next
	// frame, and the reader decodes every payload before it reads on.
	frames *FrameReader

	// sendMu serializes frame writes (bodies + heartbeat) and guards wbuf,
	// the one buffer every outgoing frame is built in.
	sendMu sync.Mutex
	wbuf   []byte

	mu       sync.Mutex
	fatalErr error
	endTime  float64

	stopOnce sync.Once
	stopCh   chan struct{}
}

func (rt *wrt) finalTime() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.endTime
}

// writeFrame sends one control frame on the coordinator connection.
func (rt *wrt) writeFrame(typ byte, payload []byte) error {
	rt.sendMu.Lock()
	defer rt.sendMu.Unlock()
	rt.wbuf = AppendFrame(rt.wbuf[:0], typ, payload)
	return rt.flush()
}

// flush writes the frame built in wbuf: exactly one whole frame per
// conn.Write call — the contract the fault-injecting wrapper's frame
// splitter relies on. A writer that keeps the bytes must copy them.
func (rt *wrt) flush() error {
	_, err := rt.conn.Write(rt.wbuf)
	return err
}

// fatal records the first unrecoverable transport error and stops the
// local world so bodies unwind instead of hanging.
func (rt *wrt) fatal(err error) {
	rt.mu.Lock()
	if rt.fatalErr == nil {
		rt.fatalErr = err
	}
	rt.mu.Unlock()
	rt.stopLocal()
}

// stopLocal stops the local world and releases the heartbeat and the
// post-outcome wait.
func (rt *wrt) stopLocal() {
	rt.world.StopLocal()
	rt.stopOnce.Do(func() { close(rt.stopCh) })
}

// Stop implements rtime.Link: it asks the coordinator for a global stop
// (Env.Stop, MaxTime watchdog); the world stops itself without waiting for
// the echo.
func (rt *wrt) Stop() {
	rt.writeFrame(FrameStop, []byte{0})
	rt.stopLocal()
}

// Send implements rtime.Link: the envelope crosses the wire and is delivered
// on arrival. Any faults are injected by the connection wrapper. The frame is
// built where it is written from — header, envelope, payload encoded in
// place, the frame length filled in last — so a send allocates nothing once
// wbuf has grown to the largest message.
func (rt *wrt) Send(m runenv.Msg) {
	rt.sendMu.Lock()
	defer rt.sendMu.Unlock()
	buf, err := appendEnvelope(beginFrame(rt.wbuf[:0], FrameMsg), m, rt.opts.Codec)
	if err != nil {
		rt.fatal(err)
		return
	}
	endFrame(buf, 0)
	rt.wbuf = buf
	if err := rt.flush(); err != nil {
		rt.fatal(fmt.Errorf("dtime: send to rank %d: %w", m.To, err))
	}
}

// reader pumps coordinator frames for the life of the connection: remote
// messages into the world, the global stop into stopLocal. It keeps
// draining after a stop so relayed traffic never backs up the coordinator.
func (rt *wrt) reader() {
	for {
		typ, payload, _, err := rt.frames.Next()
		if err != nil {
			rt.fatal(fmt.Errorf("dtime: coordinator connection lost: %w", err))
			return
		}
		switch typ {
		case FrameMsg:
			m, pb, err := decodeEnvelope(payload)
			if err != nil {
				rt.fatal(err)
				return
			}
			if rt.opts.Codec != nil {
				m.Payload, err = rt.opts.Codec.DecodePayload(m.Kind, pb)
				if err != nil {
					rt.fatal(fmt.Errorf("dtime: decode payload kind %d: %w", m.Kind, err))
					return
				}
			} else {
				m.Payload = append([]byte(nil), pb...)
			}
			if err := rt.world.Deliver(m); err != nil {
				rt.fatal(err)
				return
			}
		case FrameStop:
			rt.stopLocal()
		}
	}
}

func (rt *wrt) heartbeat() {
	t := time.NewTicker(rt.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-t.C:
			if rt.writeFrame(FrameHeartbeat, nil) != nil {
				return
			}
		}
	}
}

// RunRanks implements runenv.PartialRunner on the hosted world, keeping the
// end time the outcome frame reports.
func (rt *wrt) RunRanks(cfg runenv.Config, bodies map[int]runenv.Body) float64 {
	end := rt.world.RunRanks(cfg, bodies)
	rt.mu.Lock()
	if end > rt.endTime {
		rt.endTime = end
	}
	rt.mu.Unlock()
	return end
}

// SpawnCommand returns a Spawn callback that launches argv as a worker OS
// process: the WorkerEnv travels in the AIAC_DTIME_WORKER environment
// variable and the process's combined output is captured in its state
// directory as worker.log.
func SpawnCommand(argv []string) func(WorkerEnv) (Process, error) {
	return func(w WorkerEnv) (Process, error) {
		if len(argv) == 0 {
			return nil, fmt.Errorf("dtime: empty worker command")
		}
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(), EnvVar+"="+w.Encode())
		logf, err := os.Create(filepath.Join(w.StateDir, "worker.log"))
		if err != nil {
			return nil, err
		}
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, err
		}
		return &execProcess{cmd: cmd, log: logf}, nil
	}
}

type execProcess struct {
	cmd *exec.Cmd
	log *os.File
}

func (p *execProcess) Wait() error {
	err := p.cmd.Wait()
	p.log.Close()
	return err
}

func (p *execProcess) Kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
}

// GoroutineSpawner runs each worker as a goroutine in this process, joined
// over real TCP loopback exactly like an external worker. Tests use it so
// every worker shares one address space (a common ownership log, a common
// fault plan) while still exercising the wire protocol end to end.
func GoroutineSpawner(fn func(w WorkerEnv) error) func(WorkerEnv) (Process, error) {
	return func(w WorkerEnv) (Process, error) {
		p := &goroutineProcess{done: make(chan struct{})}
		go func() {
			defer close(p.done)
			p.err = fn(w)
		}()
		return p, nil
	}
}

type goroutineProcess struct {
	done chan struct{}
	err  error
}

func (p *goroutineProcess) Wait() error {
	<-p.done
	return p.err
}

// Kill cannot terminate a goroutine; the worker unwinds when its
// coordinator connection dies (the coordinator closes every connection on
// the way out).
func (p *goroutineProcess) Kill() {}
