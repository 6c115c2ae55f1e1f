package detect

import (
	"testing"

	"aiac/internal/runenv"
	"aiac/internal/vtime"
)

// world describes one detection run: p worker nodes talking to the protocol
// through a Node each, plus the coordinator process at rank p (which returns
// at once under the ring).
type world struct {
	proto  Protocol
	p      int
	streak int
	// work is a node's compute time per iteration (default 0.01).
	work func(rank int) float64
	// conv is a node's local verdict on an iteration.
	conv func(rank, iter int) bool
	// abortAt is the iteration at which a node hits its bound (nil: none
	// does).
	abortAt func(rank int) int
}

// nodeRun is how one worker ended: its Node, and the iterations it completed
// before it stopped (-1: it never did).
type nodeRun struct {
	d     *Node
	iters int
}

// run executes w on the virtual-time runtime. Each worker mimics an engine
// node: it drains its inbox, computes, and reports the iteration, until its
// Node stops it.
func (w world) run(t *testing.T) (Outcome, []nodeRun) {
	t.Helper()
	var out Outcome
	nodes := make([]nodeRun, w.p)
	bodies := make([]runenv.Body, w.p+1)
	for i := range nodes {
		rank := i
		bodies[rank] = func(env runenv.Env) {
			d := &Node{Env: env, Protocol: w.proto, P: w.p, Streak: w.streak,
				Data: func(m runenv.Msg) { t.Errorf("node %d got data-plane message %+v", rank, m) }}
			work, abortAt := 0.01, -1
			if w.work != nil {
				work = w.work(rank)
			}
			if w.abortAt != nil {
				abortAt = w.abortAt(rank)
			}
			nodes[rank] = nodeRun{d: d, iters: -1}
			for iter := 0; iter <= 20000; iter++ {
				for {
					m, ok := env.Recv()
					if !ok {
						break
					}
					d.Handle(m)
				}
				if d.Halted() {
					nodes[rank].iters = iter
					return
				}
				env.Sleep(work)
				if d.Iterate(iter, w.conv(rank, iter), iter == abortAt) {
					nodes[rank].iters = iter + 1
					return
				}
			}
		}
	}
	bodies[w.p] = func(env runenv.Env) { out = Run(env, Config{P: w.p, Protocol: w.proto}) }
	sch := vtime.New(runenv.Config{
		Delay: func(_, _, _ int, _ float64) float64 { return 1e-4 },
	})
	sch.Run(bodies)
	return out, nodes
}

func TestAsyncDetectorHalts(t *testing.T) {
	out, nodes := world{
		proto: Central, p: 4, streak: 2,
		work: func(rank int) float64 { return 0.01 * float64(rank+1) },
		conv: func(rank, iter int) bool { return iter >= 5+rank*7 },
	}.run(t)
	if !out.Halted || out.Aborted {
		t.Fatalf("detector outcome: %+v", out)
	}
	if out.Rounds < 2 {
		t.Fatalf("double verification expected, rounds = %d", out.Rounds)
	}
	allOK(t, nodes)
}

func TestAsyncDetectorRelapse(t *testing.T) {
	// node 0 converges, relapses for a while, then converges for good: a
	// short converged blip (long enough to report with streak 2, too short
	// to survive the verification round-trip), then a long relapse, then
	// stable. The detector must not halt during the relapse window.
	out, nodes := world{
		proto: Central, p: 2, streak: 2,
		conv: func(rank, iter int) bool {
			if rank != 0 {
				return iter >= 2
			}
			return iter == 5 || iter == 6 || iter >= 31
		},
	}.run(t)
	if !out.Halted {
		t.Fatal("did not halt")
	}
	allOK(t, nodes)
	// node 0 becomes stably converged at iteration 31+streak; halting
	// before that would be premature.
	if nodes[0].iters < 31 {
		t.Fatalf("premature halt after %d iterations of node 0", nodes[0].iters)
	}
}

func TestAsyncDetectorAbort(t *testing.T) {
	out, nodes := world{
		proto: Central, p: 3, streak: 1,
		// rank 1 hits its bound on its first iteration, which takes 0.05
		work: func(rank int) float64 { return 0.01 + 0.04*float64(rank%2) },
		conv: func(rank, iter int) bool { return false },
		abortAt: func(rank int) int {
			if rank == 1 {
				return 0
			}
			return -1
		},
	}.run(t)
	if !out.Halted || !out.Aborted {
		t.Fatalf("outcome: %+v", out)
	}
	allAborted(t, nodes)
}

func TestBarrierCoordinator(t *testing.T) {
	out, nodes := world{
		proto: Barrier, p: 3,
		work: func(rank int) float64 { return 0.01 * float64(rank+1) }, // nodes of different speeds
		conv: func(rank, iter int) bool { return iter >= 9 },
	}.run(t)
	if !out.Halted || out.Aborted {
		t.Fatalf("outcome: %+v", out)
	}
	if out.Rounds != 10 {
		t.Fatalf("rounds = %d, want 10 (halt exactly when all converge)", out.Rounds)
	}
	allOK(t, nodes)
	for i, nr := range nodes {
		if nr.iters != 10 {
			t.Fatalf("node %d halted after %d iterations, want 10 (lockstep)", i, nr.iters)
		}
	}
}

func TestBarrierAbort(t *testing.T) {
	out, nodes := world{
		proto: Barrier, p: 2,
		conv: func(rank, iter int) bool { return false },
		abortAt: func(rank int) int {
			if rank == 0 {
				return 3
			}
			return -1
		},
	}.run(t)
	if !out.Halted || !out.Aborted {
		t.Fatalf("outcome: %+v", out)
	}
	allAborted(t, nodes)
}

func TestRingHaltsWhenAllConverge(t *testing.T) {
	_, nodes := world{
		proto: Ring, p: 5, streak: 2,
		conv: func(rank, iter int) bool { return iter >= 4+rank*3 },
	}.run(t)
	allOK(t, nodes)
}

func TestRingNoPrematureHaltOnRelapse(t *testing.T) {
	// node 2 blips converged, relapses, then settles at iteration 40
	_, nodes := world{
		proto: Ring, p: 4, streak: 2,
		conv: func(rank, iter int) bool {
			if rank != 2 {
				return iter >= 3
			}
			return iter == 6 || iter == 7 || iter >= 40
		},
	}.run(t)
	allOK(t, nodes)
	if nodes[2].iters < 40 {
		t.Fatalf("premature halt: node 2 halted after %d iterations", nodes[2].iters)
	}
}

func TestRingAbortPropagates(t *testing.T) {
	_, nodes := world{
		proto: Ring, p: 4, streak: 2,
		conv: func(rank, iter int) bool { return false }, // nobody ever converges
		abortAt: func(rank int) int {
			if rank == 3 {
				return 25
			}
			return -1
		},
	}.run(t)
	allAborted(t, nodes)
}

func TestRingDoubleRound(t *testing.T) {
	_, nodes := world{
		proto: Ring, p: 3, streak: 1,
		conv: func(rank, iter int) bool { return true },
	}.run(t)
	allOK(t, nodes)
	// at least two clean rounds must pass before the halt
	if d := nodes[0].d; d.round < 2 || d.cleanRuns != 2 {
		t.Fatalf("halted after %d rounds, %d clean; want >= 2 and 2", d.round, d.cleanRuns)
	}
}

// TestRingSingleNode: a single node halts on its own stable convergence, and
// so it does under the other protocols.
func TestRingSingleNode(t *testing.T) {
	for _, proto := range []Protocol{Ring, Central, Barrier} {
		t.Run(proto.String(), func(t *testing.T) {
			_, nodes := world{
				proto: proto, p: 1, streak: 2,
				conv: func(rank, iter int) bool { return iter >= 5 },
			}.run(t)
			allOK(t, nodes)
			if nodes[0].iters > 10 {
				t.Fatalf("halted after %d iterations, converged from 5", nodes[0].iters)
			}
		})
	}
}

// allOK fails unless every node stopped on a converged HALT.
func allOK(t *testing.T, nodes []nodeRun) {
	t.Helper()
	for r, nr := range nodes {
		if nr.iters < 0 || !nr.d.Halted() || !nr.d.OK() {
			t.Fatalf("node %d: iterations %d, halted=%v ok=%v", r, nr.iters, nr.d.Halted(), nr.d.OK())
		}
	}
}

// allAborted fails unless every node stopped on an aborting HALT.
func allAborted(t *testing.T, nodes []nodeRun) {
	t.Helper()
	for r, nr := range nodes {
		if nr.iters < 0 || !nr.d.halted || !nr.d.aborted {
			t.Fatalf("node %d: iterations %d, halted=%v aborted=%v", r, nr.iters, nr.d.halted, nr.d.aborted)
		}
	}
}

func TestClientStreak(t *testing.T) {
	// without enough streak a node must not report convergence (central)
	sch := vtime.New(runenv.Config{})
	var stateMsgs []StateMsg
	sch.Run([]runenv.Body{
		func(env runenv.Env) {
			d := &Node{Env: env, Protocol: Central, P: 1, Streak: 3}
			seq := []bool{true, true, false, true, true, true, true, false, true}
			for k, conv := range seq {
				env.Sleep(0.01)
				d.Iterate(k, conv, false)
			}
		},
		func(env runenv.Env) {
			for {
				m, ok := env.RecvWait()
				if !ok {
					return
				}
				stateMsgs = append(stateMsgs, m.Payload.(StateMsg))
			}
		},
	})
	// streak 3 reached at index 5 (true), broken at 7 (false):
	// expected reports: conv=true, conv=false
	if len(stateMsgs) != 2 || !stateMsgs[0].Conv || stateMsgs[1].Conv {
		t.Fatalf("state reports = %+v", stateMsgs)
	}
}
