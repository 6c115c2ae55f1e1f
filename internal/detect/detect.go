// Package detect implements global convergence detection and halting for
// parallel iterative algorithms — one of the problems the paper singles out
// for AIAC algorithms ("choosing the good criterion for convergence
// detection and the good halting procedure", §1.2).
//
// Two protocols are provided:
//
//   - An asynchronous two-phase verification detector for SIAC/AIAC: nodes
//     report local-convergence transitions; when every node is converged
//     the detector runs one (or two, by default) verification rounds in
//     which every node must re-confirm; any relapse cancels the round. A
//     unanimous confirmation triggers a HALT broadcast. Combined with the
//     node-side streak requirement (local residual below tolerance for
//     several consecutive iterations) this makes premature halts vanishingly
//     unlikely under contraction — and the engine's tests validate final
//     solutions against sequential references to catch any that slip by.
//
//   - A barrier coordinator for SISC: nodes report their residual at every
//     global barrier; the coordinator releases the barrier and halts the
//     system exactly when the global residual is below tolerance, making
//     SISC terminate on precisely the same iteration as the sequential
//     algorithm.
//
// The detector runs as one extra process (by convention rank P, co-located
// with node 0 for link-delay purposes).
package detect

import (
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// Message kinds used by the detection protocols: the control plane, numbered
// from runenv.ControlKindBase.
const (
	// KindState: node → detector, payload StateMsg, sent when the node's
	// local convergence state flips.
	KindState = runenv.ControlKindBase + 1 + iota
	// KindVerify: detector → nodes, payload RoundMsg.
	KindVerify
	// KindConfirm: node → detector, payload ConfirmMsg.
	KindConfirm
	// KindHalt: detector → nodes, payload HaltMsg.
	KindHalt
	// KindAbort: node → detector, no payload; the node hit its safety
	// bound and the whole computation must stop unconverged.
	KindAbort
	// KindBarrierArrive: node → coordinator, payload ArriveMsg.
	KindBarrierArrive
	// KindBarrierGo: coordinator → nodes, payload GoMsg.
	KindBarrierGo
)

// StateMsg reports a node's local convergence state.
type StateMsg struct {
	Conv bool
}

// RoundMsg opens a verification round.
type RoundMsg struct {
	Round int
}

// ConfirmMsg answers a verification round.
type ConfirmMsg struct {
	Round int
	Conv  bool
}

// HaltMsg terminates the computation.
type HaltMsg struct {
	Aborted bool
}

// ArriveMsg is a node's arrival at a SISC global barrier.
type ArriveMsg struct {
	Iter  int
	Conv  bool
	Abort bool
}

// GoMsg releases a SISC global barrier.
type GoMsg struct {
	Iter    int
	Halt    bool
	Aborted bool
}

// control messages are tiny; this is the modeled wire size.
const ctrlBytes = 32

// Config configures a detector process.
type Config struct {
	// P is the number of worker nodes (ranks 0..P-1); the detector itself
	// runs as rank P.
	P int
	// Barrier selects the SISC barrier-coordinator protocol instead of
	// the asynchronous detector.
	Barrier bool
	// SingleVerify disables the second verification round of the
	// asynchronous protocol (kept as an ablation knob).
	SingleVerify bool

	// TraceIters bounds which barrier releases are traced (a SISC run emits
	// P control sends per barrier, which would dwarf the rest of the trace):
	// only barriers for iterations < TraceIters are recorded, 0 = all. The
	// asynchronous protocols' traffic is round-bounded and always traced.
	TraceIters int

	// OnRound, when non-nil, is called when the asynchronous detector opens
	// a verification round (the barrier coordinator releases far too many
	// barriers to report each one). OnHalt, when non-nil, is called when
	// either protocol broadcasts the final HALT. Both are telemetry hooks;
	// they run on the detector process.
	OnRound func(t float64, round int)
	OnHalt  func(t float64, aborted bool)
}

// Outcome reports how a detector run ended.
type Outcome struct {
	Halted  bool
	Aborted bool
	// Rounds counts verification rounds opened (async) or barriers
	// released (barrier mode).
	Rounds int
}

// sendCtrl sends a detection-protocol message and records it as a Control
// transfer — the detection edges of the happens-before DAG. The clock is read
// before the send: on the real-time runtimes Send may block on a socket
// write, and a T0 read after it can land past the receiver's delivery stamp.
// env.Trace is a no-op when tracing is disabled.
func sendCtrl(env runenv.Env, to, kind int, payload any, iter int, note string) {
	t0 := env.Now()
	arrival := env.Send(to, kind, payload, ctrlBytes)
	env.Trace(trace.Event{
		T0: t0, T1: arrival, Node: env.Rank(), To: to,
		Kind: trace.Control, Iter: iter, Note: note, Seq: env.LastSendSeq(),
	})
}

// Run is the detector process body. It returns when a HALT (or abort) has
// been broadcast, or when the world stops.
func Run(env runenv.Env, cfg Config) Outcome {
	if cfg.Barrier {
		return runBarrier(env, cfg)
	}
	return runAsync(env, cfg)
}

func runAsync(env runenv.Env, cfg Config) Outcome {
	conv := make([]bool, cfg.P)
	allConv := func() bool {
		for _, c := range conv {
			if !c {
				return false
			}
		}
		return true
	}
	broadcast := func(kind int, payload any, note string) {
		for i := 0; i < cfg.P; i++ {
			sendCtrl(env, i, kind, payload, -1, note)
		}
	}
	out := Outcome{}
	round := 0
	verifying := false
	secondPass := false
	var confirms int
	var allOK bool
	openRound := func() {
		round++
		out.Rounds++
		verifying = true
		confirms = 0
		allOK = true
		if cfg.OnRound != nil {
			cfg.OnRound(env.Now(), round)
		}
		broadcast(KindVerify, RoundMsg{Round: round}, "verify")
	}
	for {
		m, ok := env.RecvWait()
		if !ok {
			return out
		}
		switch m.Kind {
		case KindState:
			s := m.Payload.(StateMsg)
			conv[m.From] = s.Conv
			if !s.Conv && verifying {
				// relapse: cancel the round; stale confirms are
				// filtered by the round id.
				verifying = false
				secondPass = false
			}
			if !verifying && allConv() {
				secondPass = false
				openRound()
			}
		case KindConfirm:
			c := m.Payload.(ConfirmMsg)
			if !verifying || c.Round != round {
				break // stale round
			}
			confirms++
			allOK = allOK && c.Conv
			if confirms < cfg.P {
				break
			}
			verifying = false
			if !allOK {
				secondPass = false
				break
			}
			if !cfg.SingleVerify && !secondPass {
				secondPass = true
				openRound()
				break
			}
			if cfg.OnHalt != nil {
				cfg.OnHalt(env.Now(), false)
			}
			broadcast(KindHalt, HaltMsg{}, "halt-bcast")
			out.Halted = true
			return out
		case KindAbort:
			if cfg.OnHalt != nil {
				cfg.OnHalt(env.Now(), true)
			}
			broadcast(KindHalt, HaltMsg{Aborted: true}, "halt-bcast")
			out.Halted = true
			out.Aborted = true
			return out
		}
	}
}

func runBarrier(env runenv.Env, cfg Config) Outcome {
	out := Outcome{}
	arrived := make(map[int]ArriveMsg, cfg.P)
	for {
		m, ok := env.RecvWait()
		if !ok {
			return out
		}
		if m.Kind != KindBarrierArrive {
			continue
		}
		a := m.Payload.(ArriveMsg)
		arrived[m.From] = a
		if len(arrived) < cfg.P {
			continue
		}
		// all nodes are at the barrier of the same iteration
		halt, abort := true, false
		iter := a.Iter
		for _, aa := range arrived {
			if !aa.Conv {
				halt = false
			}
			if aa.Abort {
				abort = true
			}
			if aa.Iter != iter {
				// protocol invariant: SISC nodes move in lockstep
				panic("detect: barrier arrivals from different iterations")
			}
		}
		out.Rounds++
		go_ := GoMsg{Iter: iter, Halt: halt || abort, Aborted: abort}
		traceGo := cfg.TraceIters == 0 || iter < cfg.TraceIters
		for i := 0; i < cfg.P; i++ {
			if traceGo {
				sendCtrl(env, i, KindBarrierGo, go_, iter, "barrier-go")
			} else {
				env.Send(i, KindBarrierGo, go_, ctrlBytes)
			}
		}
		if halt || abort {
			if cfg.OnHalt != nil {
				cfg.OnHalt(env.Now(), abort)
			}
			out.Halted = true
			out.Aborted = abort
			return out
		}
		arrived = make(map[int]ArriveMsg, cfg.P)
	}
}
