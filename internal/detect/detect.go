// Package detect implements global convergence detection and halting for
// parallel iterative algorithms — one of the problems the paper singles out
// for AIAC algorithms ("choosing the good criterion for convergence
// detection and the good halting procedure", §1.2).
//
// Three protocols are provided, each named by a Protocol value:
//
//   - Central, an asynchronous two-phase verification detector for
//     SIAC/AIAC: nodes report local-convergence transitions; when every node
//     is converged the detector runs two verification rounds in which every
//     node must re-confirm; any relapse cancels the round. A unanimous
//     confirmation triggers a HALT broadcast. Combined with the node-side
//     streak requirement (local residual below tolerance for several
//     consecutive iterations) this makes premature halts unlikely under
//     contraction — and the engine's tests validate final solutions against
//     sequential references to catch any that slip by.
//
//   - Ring, a decentralized token ring for SIAC/AIAC with no coordinator at
//     all, matching the paper's preference for fully decentralized control:
//     the same streak, two consecutive clean token rounds, and a HALT that
//     travels around the ring.
//
//   - Barrier, SISC's global barrier: nodes report their residual at every
//     iteration; the coordinator releases the barrier and halts the system
//     exactly when the global residual is below tolerance, making SISC
//     terminate on precisely the same iteration as the sequential algorithm.
//
// A worker node talks to every protocol through one type, Node: it reports
// each local iteration to Node.Iterate and hands Node.Handle the messages it
// receives. The coordinator of Central and Barrier is Run, one extra process
// (by convention rank P, co-located with node 0 for link-delay purposes);
// the ring leaves that slot inert, so rank numbering does not change.
package detect

import (
	"fmt"

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

// Message kinds of the ring protocol.
const (
	// KindToken carries TokenMsg around the ring.
	KindToken = runenv.ControlKindBase + 50 + iota
	// KindRingHalt terminates the computation, forwarded around the ring.
	KindRingHalt
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

// TokenMsg is the circulating detection token.
type TokenMsg struct {
	Round int
	Clean bool
}

// RingHaltMsg ends the computation.
type RingHaltMsg struct {
	Aborted bool
}

// Protocol selects a convergence-detection protocol.
type Protocol int

const (
	// Central is the two-phase verification detector at rank P.
	Central Protocol = iota
	// Ring is the decentralized token ring: no coordinator.
	Ring
	// Barrier is SISC's barrier coordinator at rank P.
	Barrier
)

// String returns the protocol's name.
func (p Protocol) String() string {
	switch p {
	case Central:
		return "central"
	case Ring:
		return "ring"
	case Barrier:
		return "barrier"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// Coordinated reports whether rank P runs a coordinator under p, whose
// Outcome is the run's verdict. Under the ring, which has none, the verdict
// is every node's Node.OK.
func (p Protocol) Coordinated() bool { return p != Ring }

// control messages are tiny; this is the modeled wire size.
const ctrlBytes = 32

// Config configures a detector process.
type Config struct {
	// P is the number of worker nodes (ranks 0..P-1); the detector itself
	// runs as rank P.
	P int
	// Protocol selects what the process runs; under Ring it returns at
	// once.
	Protocol Protocol

	// TraceIters bounds which barrier releases are traced (a SISC run emits
	// P control sends per barrier, which would dwarf the rest of the trace):
	// only barriers for iterations < TraceIters are recorded, 0 = all. The
	// asynchronous protocols' traffic is round-bounded and always traced.
	TraceIters int

	// OnRound, when non-nil, is called when the central detector opens a
	// verification round (the barrier coordinator releases far too many
	// barriers to report each one). OnHalt, when non-nil, is called when
	// either coordinator broadcasts the final HALT. Both are telemetry
	// hooks; they run on the detector process.
	OnRound func(t float64, round int)
	OnHalt  func(t float64, aborted bool)
}

// Outcome reports how a detector run ended.
type Outcome struct {
	Halted  bool
	Aborted bool
	// Rounds counts verification rounds opened (Central) or barriers
	// released (Barrier).
	Rounds int
}

// sendCtrl sends a detection-protocol message and records it as a Control
// transfer — the detection edges of the happens-before DAG. The clock is read
// before the send: on the real-time runtimes Send may block on a socket
// write, and a T0 read after it can land past the receiver's delivery stamp.
// env.Trace is a no-op when tracing is disabled.
func sendCtrl(env runenv.Env, to, kind int, payload any, iter int, note string) {
	sendTraced(env, true, to, kind, payload, iter, note)
}

// sendTraced is sendCtrl for the barrier's per-iteration messages, which are
// recorded only when traced holds.
func sendTraced(env runenv.Env, traced bool, to, kind int, payload any, iter int, note string) {
	t0 := env.Now()
	arrival := env.Send(to, kind, payload, ctrlBytes)
	if traced {
		env.Trace(trace.Event{
			T0: t0, T1: arrival, Node: env.Rank(), To: to,
			Kind: trace.Control, Iter: iter, Note: note, Seq: env.LastSendSeq(),
		})
	}
}

// Run is the body of the coordinator process, rank P. It returns when a HALT
// (or abort) has been broadcast, or when the world stops; under Ring, at
// once.
func Run(env runenv.Env, cfg Config) Outcome {
	switch cfg.Protocol {
	case Barrier:
		return runBarrier(env, cfg)
	case Central:
		return runCentral(env, cfg)
	}
	return Outcome{}
}

func runCentral(env runenv.Env, cfg Config) Outcome {
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
			if !secondPass {
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
			sendTraced(env, traceGo, i, KindBarrierGo, go_, iter, "barrier-go")
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
