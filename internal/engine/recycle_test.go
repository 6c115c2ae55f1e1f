package engine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/fault"
	"aiac/internal/rtime"
	"aiac/internal/runenv"
)

// recycleCell is one faulted AIAC + LB run of the recycling grid: the whole
// data plane (halos and the LB handshake) drops, duplicates and reorders, so
// the same payload slices reach a node twice, late, and at positions that
// load balancing has moved — every way a recycled buffer could still be
// aliased. The default jitter (2× the link delay) is shorter than a sweep, so
// a late copy would only ever meet the tag it carries; 10× lets it arrive
// after fresher halos too.
func recycleCell(seed int64, drop float64) fault.Plan {
	return fault.Plan{
		Seed:         seed,
		Msg:          fault.Rates{Drop: drop, Dup: 0.15, Reorder: 0.15},
		JitterFactor: 10,
		Kinds:        FaultKindsData(),
	}
}

// recycleCellNoDup is a cell no copy of a message can reach twice: drops,
// reorders and delay spikes, but no duplicates. There a node also recycles
// the halos it drops and the halos it prunes, and keeps the message structs
// it is done with, so these cells read every recycling path the duplicating
// ones leave unused.
func recycleCellNoDup(seed int64, drop float64) fault.Plan {
	return fault.Plan{
		Seed:         seed,
		Msg:          fault.Rates{Drop: drop, Reorder: 0.15, Spike: 0.1},
		JitterFactor: 10,
		Kinds:        FaultKindsData(),
	}
}

// recycleGolden holds digest("%+v", Result) of every grid cell, computed on
// the last commit whose exchange path cloned every halo and had no free list
// (34a67bb); the nodup/ cells on the last commit that dropped unread halos,
// pruned trajectories, shipped clones and spent messages to the GC
// (0f522bc). Never regenerate them from the code under test: the poison shows
// a read through a stale alias, only this record shows a buffer handed out
// twice.
var recycleGolden = map[string]string{
	"drop=0.05/seed=1": "dd06dedbfa85a25f469179f06f5283ca2a3747f7fba69f75f61ee5f1a5b7d971",
	"drop=0.15/seed=1": "ce7cd1f82ed15f0e5352c5768e945059829b5c854ee8915ec1d5b314538d6e9c",
	"drop=0.30/seed=1": "6b249a6c81816b7ac1eed63e7f4fa5b9ede4e26419913dd681f68b42b6e81f76",
	"drop=0.05/seed=2": "9c54c3da81057e5e98d16d3483ea9d6aed31270a241ed4e6967327e5eb5e20bc",
	"drop=0.15/seed=2": "e967d44cda6c565cb7fbccabbfea241881dccec532c28a839b56395fea6c156e",
	"drop=0.30/seed=2": "3f7e72fcd9752c3c235a005ce182e23df558a3cbc52a904e9c210eebf042dd9d",
	"drop=0.05/seed=3": "3a7cb86f5804a1a6cf53d41dd10e506b23b25ed7200cb5b142aecd1859f1626e",
	"drop=0.15/seed=3": "d84c74e3080d7a6c134b0e54a7de2e71140611a76dbdef954da8abe4297e5e00",
	"drop=0.30/seed=3": "b6cba2b6b1d85a16263ea2d9cd8d3e5378961d9818a7e87901e7803de20c4ff2",
	"drop=0.05/seed=4": "8dcad41f760e378828b64dc94036930c0e2e8cc8c1e1b58fe2916ac64900ba45",
	"drop=0.15/seed=4": "e2f1cb692bb42c0b4c29f645aae935d8ad91d7cd6a8e44e3a1907a58b05b488d",
	"drop=0.30/seed=4": "07daf89513d352378adb93b618b842701c29fa94fed285409e3bab4b1b3cf4e4",
	"drop=0.05/seed=5": "ea3d49536d92877bda5e1b10f8dd64a3efe298f0825bf021e7f7ac0a944c5b00",
	"drop=0.15/seed=5": "8a6e39753739c1c4b36acb5071413deb2c07dafce7ccaa9757835aec05bd5fc2",
	"drop=0.30/seed=5": "29408f236e0d01dd3686170f6d5674559118380c1daa4c80cb47cee57ea4125f",

	"nodup/drop=0.05/seed=1": "0bde81dc8fc07c8a90ab8430d08d2d02b20729bfc2568409ee968b4f411e78d5",
	"nodup/drop=0.15/seed=1": "26c15f3d7a721ee77a15332c15d5a4509b08b680bfc39bf14876362c94f4be30",
	"nodup/drop=0.30/seed=1": "eb4526515bd96205761c8cd681f8d007c3f300c290eb3de0b1f698b1cfff2985",
	"nodup/drop=0.05/seed=2": "be69ded656594be406834a16aa8ae543af585282e6eee964787c9f7a7751aa94",
	"nodup/drop=0.15/seed=2": "31cb08fd813c025e7824a543dab7898fa22d64cc448d2d80bacdddb8d3f81a6c",
	"nodup/drop=0.30/seed=2": "f5a31ff17f0ff783ca70c87f48f8b715bb81aebec949fef35e7c48dc44fae2fe",
	"nodup/drop=0.05/seed=3": "e367fbca7cfadea8e8f933e3dcb42d2634508a0bca77506e5a7db6c177f05ca8",
	"nodup/drop=0.15/seed=3": "0b924b44955518fd0113f4760765aca36450ce20ed47665ca712b796183bd459",
	"nodup/drop=0.30/seed=3": "3801d8c8ff5d6f18cf2fddfbda88179476fde8b454f41165253e19ad29584de7",
	"nodup/drop=0.05/seed=4": "4fb17c32652258875328b6e14b17fbc4080792aae307762479b91fac004d8ee0",
	"nodup/drop=0.15/seed=4": "12e04d36d0299a23c09c243a350c0f6b5d57fd61bc7f2297352f76a4cec27393",
	"nodup/drop=0.30/seed=4": "70b67c6c457298472eea6cd89abe54cdc71d8ca91ef2f3a9a89c19d3cf658066",
	"nodup/drop=0.05/seed=5": "27ea7d529a223429e25926e8a1a4d1b922e1e998ef56a8b546c42f3f549ba88e",
	"nodup/drop=0.15/seed=5": "107f8d7f6c190e1bbe6dfa2a2da05062061a87f522ffa0e9022809c4f9b44e1f",
	"nodup/drop=0.30/seed=5": "64ead3f35ec665a58dcfe685b8c94d21fd0e09edd42f0f4ba60f51729ce96935",
}

func hasNaN(state [][]float64) bool {
	for _, tr := range state {
		for _, v := range tr {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// TestFaultRecycledBufferNeverRead runs the grid twice, the second time with
// every buffer that enters a free list filled with NaN. A node that recycles a
// buffer something can still read — a halo of a message it dropped, a slice
// replaced by itself, an entry a pending transfer keeps for its undo — turns
// that read into NaN, and the run stops matching the unpoisoned one and the
// pre-recycling record.
func TestFaultRecycledBufferNeverRead(t *testing.T) {
	prob, _ := smallBruss()
	run := func(t *testing.T, plan fault.Plan, poison bool, runner runenv.Runner) *Result {
		cfg := lbConfig(prob)
		cfg.Faults = &plan
		cfg.poisonFree = poison
		if runner != nil {
			cfg.Runner = runner
			cfg.MaxTime = 60 // model seconds; watchdog only
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hasNaN(res.State) {
			t.Fatalf("poison=%v: NaN in the solution, faults %+v", poison, res.FaultStats)
		}
		return res
	}
	for _, grid := range []struct {
		prefix string
		cell   func(seed int64, drop float64) fault.Plan
	}{{"", recycleCell}, {"nodup/", recycleCellNoDup}} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, drop := range []float64{0.05, 0.15, 0.30} {
				name := fmt.Sprintf("%sdrop=%.2f/seed=%d", grid.prefix, drop, seed)
				plan := grid.cell(seed, drop)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					clean, poisoned := run(t, plan, false, nil), run(t, plan, true, nil)
					if !reflect.DeepEqual(clean, poisoned) {
						t.Errorf("poisoning the free lists changed the run:\nclean    %+v\npoisoned %+v", clean, poisoned)
					}
					fs := clean.FaultStats
					if (fs.Duplicated == 0) != (plan.Msg.Dup == 0) || fs.Dropped == 0 || clean.LBTransfers == 0 {
						t.Errorf("vacuous cell: %d transfers, faults %+v", clean.LBTransfers, fs)
					}
					if got := digest("%+v", *clean); got != recycleGolden[name] {
						t.Errorf("result digest %s, want %s (time %v, iters %d, boundary msgs %d)",
							got, recycleGolden[name], clean.Time, clean.TotalIters, clean.BoundaryMsgs)
					}
				})
			}
		}
	}
	// The schedule no Result shows: a transfer whose receiver integrated it
	// and sent its next halo, while the ack stays lost until halt. The halo
	// lands on a position lbKeep still holds for the undo, and the halt-time
	// restore brings the kept buffers back — as provisional copies, which the
	// gather drops whenever the receiver's exist, so the grid above cannot
	// see them.
	t.Run("ack-lost-until-halt", func(t *testing.T) {
		cfg := lbConfig(prob).withDefaults()
		cfg.poisonFree = true
		n := newNode(clockEnv{}, &cfg, 1)
		lo, hi := n.startC, n.endC
		var want [][]float64
		for j := lo; j < hi; j++ {
			want = append(want, slices.Clone(n.val.get(j)))
		}
		n.loadEst, n.nbLoad[dirLeft], n.nbLoadValid[dirLeft] = 1, 1e-3, true
		if !n.tryLB(dirLeft) {
			t.Fatal("no transfer initiated")
		}
		n.recvBoundary(runenv.Msg{From: 0, Kind: kindBoundary,
			Payload: &boundaryMsg{Pos: n.startC - n.halo, Comps: freshTrajs(n.halo, n.trajLen)}})
		n.restoreLB(dirLeft) // what run does with a transfer still pending at halt
		for j := lo; j < hi; j++ {
			if got := n.val.get(j); !reflect.DeepEqual(got, want[j-lo]) {
				t.Fatalf("component %d restored as %v, shipped as %v", j, got, want[j-lo])
			}
		}
	})
	// The schedules a duplicating plan allows and the grid is too short to
	// meet: a halo's late copy arrives after a transfer has taken the range
	// away from where the halo attaches and back. The copy's tag is still the
	// newest, so it is integrated, and it must find the halo it carried: a
	// halo that arrived in a message and left val other than by a fresher
	// halo — pruned after a round trip, or displaced by an attach — may be
	// recycled only where no second copy of the message can exist.
	lateCopy := func(t *testing.T, awayAndBack func(n *node, start int)) {
		cfg := lbConfig(prob).withDefaults()
		dup := recycleCell(1, 0)
		cfg.Faults = &dup
		cfg.poisonFree = true
		n := newNode(clockEnv{}, &cfg, 1)
		start := n.startC
		carried := slices.Repeat([]float64{0.25}, n.trajLen)
		halo := make([][]float64, n.halo)
		for i := range halo {
			halo[i] = slices.Clone(carried)
		}
		m := runenv.Msg{From: 0, Kind: kindBoundary,
			Payload: &boundaryMsg{Iter: 5, Pos: start - n.halo, Comps: halo}}
		n.recvBoundary(m)
		awayAndBack(n, start)
		if n.startC != start {
			t.Fatalf("range starts at %d, want %d", n.startC, start)
		}
		n.recvBoundary(m) // the late copy
		for i := range n.halo {
			if got := n.val.get(start - n.halo + i); !slices.Equal(got, carried) {
				t.Fatalf("halo %d reads %v after the late copy, want the 0.25s it carried", start-n.halo+i, got)
			}
		}
	}
	t.Run("late-copy-after-round-trip", func(t *testing.T) {
		lateCopy(t, func(n *node, start int) {
			n.loadEst, n.nbLoad[dirLeft], n.nbLoadValid[dirLeft] = 1, 1e-3, true
			if !n.tryLB(dirLeft) {
				t.Fatal("no transfer initiated")
			}
			count := n.lbPendingCount[dirLeft]
			n.recvLBAck(runenv.Msg{From: 0, Kind: kindLBAck, Payload: lbCtrlMsg{XferID: n.lbXferID[dirLeft]}})
			n.recvLBData(runenv.Msg{From: 0, Kind: kindLBData, Payload: lbDataMsg{
				XferID: 1, Pos: start - n.halo, Count: count, Comps: freshTrajs(n.halo+count, n.trajLen)}})
		})
	})
	t.Run("late-copy-after-attach", func(t *testing.T) {
		lateCopy(t, func(n *node, start int) {
			const count = 2
			n.recvLBData(runenv.Msg{From: 0, Kind: kindLBData, Payload: lbDataMsg{
				XferID: 1, Pos: start - n.halo - count, Count: count,
				Comps: freshTrajs(n.halo+count, n.trajLen), Load: 1e-3}})
			n.cfg.LB.MinKeep = n.endC - n.startC - count // ship back what arrived
			n.loadEst = 1
			if !n.tryLB(dirLeft) {
				t.Fatal("no transfer initiated")
			}
		})
	})
	// Real goroutines, same plans: under -race a buffer or a message two nodes
	// hold at once is a reported race. A real-time answer is only checked for
	// poison — how close it lands is the false-halt question of ROADMAP item 0.
	for name, plan := range map[string]fault.Plan{"rtime": recycleCell(1, 0.15), "rtime/nodup": recycleCellNoDup(1, 0.15)} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := run(t, plan, true, rtime.Runner{Speedup: 200})
			if len(res.State) != prob.Components() {
				t.Fatalf("gathered %d components, want %d", len(res.State), prob.Components())
			}
			t.Logf("converged %v after %d iterations, %d transfers, faults %+v",
				res.Converged, res.TotalIters, res.LBTransfers, res.FaultStats)
		})
	}
}

// clockEnv is the part of runenv.Env a node needs to integrate a halo and to
// ship a transfer nobody receives.
type clockEnv struct{ runenv.Env }

func (clockEnv) Now() float64 { return 0 }

func (clockEnv) Send(to, kind int, payload any, bytes int) float64 { return 0 }

func freshTrajs(n, trajLen int) [][]float64 {
	ts := make([][]float64, n)
	for i := range ts {
		ts[i] = make([]float64, trajLen)
	}
	return ts
}

// TestFreeListBounded feeds a node far more halos than it ever sends — a slow
// rank next to a fast one — and checks that what the run's list keeps stays
// within its bound, and that the node's sends then drain the list.
func TestFreeListBounded(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 2).withDefaults()
	n := newNode(clockEnv{}, &cfg, 0)
	free := cfg.free
	if free.max != cfg.P*maxFree {
		t.Fatalf("a %d-rank run's list is bounded at %d, want %d", cfg.P, free.max, cfg.P*maxFree)
	}
	for it := 0; it < 10*free.max; it++ {
		n.recvBoundary(runenv.Msg{From: 1, Kind: kindBoundary,
			Payload: &boundaryMsg{Iter: it, Pos: n.endC, Comps: freshTrajs(n.halo, n.trajLen)}})
		if len(free.trajs) > free.max || len(free.msgs) > free.max {
			t.Fatalf("after %d halos the list holds %d buffers and %d messages, bound %d",
				it+1, len(free.trajs), len(free.msgs), free.max)
		}
	}
	if len(free.trajs) != free.max || len(free.msgs) != free.max || cap(free.trajs) > 2*free.max || cap(free.msgs) > 2*free.max {
		t.Fatalf("after %d halos the list holds %d buffers (cap %d) and %d messages (cap %d), want %d of each",
			10*free.max, len(free.trajs), cap(free.trajs), len(free.msgs), cap(free.msgs), free.max)
	}
	sends := free.max / n.halo
	for it := range sends {
		n.sendBoundary(dirRight, 0, it)
	}
	if len(free.trajs) != free.max-sends*n.halo || len(free.msgs) != free.max-sends {
		t.Fatalf("after %d sends of %d halos the list holds %d buffers and %d messages, want %d and %d",
			sends, n.halo, len(free.trajs), len(free.msgs), free.max-sends*n.halo, free.max-sends)
	}
}

// TestRunListShared: what one node of a run lets go of — the halos a fresher
// one evicts, the messages it has read — is what another node of the run
// draws for its next send. A slow rank that integrates more halos than it
// sends thus feeds its faster neighbour, which would otherwise allocate
// every send it cannot refill.
func TestRunListShared(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 3).withDefaults()
	slow, fast := newNode(clockEnv{}, &cfg, 0), newNode(clockEnv{}, &cfg, 1)
	parked := map[*float64]bool{}
	read := map[*boundaryMsg]bool{}
	for it := 0; it < 4; it++ {
		b := &boundaryMsg{Iter: it, Pos: slow.endC, Comps: freshTrajs(slow.halo, slow.trajLen)}
		for _, tr := range b.Comps {
			parked[&tr[0]] = true
		}
		read[b] = true
		slow.recvBoundary(runenv.Msg{From: 1, Kind: kindBoundary, Payload: b})
	}
	if b := fast.newMsg(); !read[b] {
		t.Errorf("node 1 drew a new message, not one of the %d node 0 has read", len(read))
	}
	if tr := fast.reuse(); !parked[&tr[0]] {
		t.Errorf("node 1 drew a new buffer, not one of the halos node 0 let go of")
	}
}

// TestDistRecycledBufferNeverRead is the poison row of the dist backend: on
// two loopback workers every buffer and message entering a worker's list is
// filled with NaN, while the wire drops, reorders and (in the first cell)
// duplicates frames of every data-plane kind. Lost and late LB frames make
// lbResendMsg send its trajectories again, so a kindLBData payload that
// entered the worker's list after its first encoding would go out again as
// NaN; an arriving halo decoded into a buffer something still reads would
// show the same way. As in the real-time cells
// of TestFaultRecycledBufferNeverRead, the answer is only checked for
// poison: how close a faulted real-time run lands is the false-halt
// question of ROADMAP item 0 (in 100 runs of each cell, with or without the
// worker list, a few land farther than faultTol from the reference).
func TestDistRecycledBufferNeverRead(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan fault.Plan
	}{
		{"dup", fault.Plan{Seed: 31, Msg: fault.Rates{Drop: 0.1, Dup: 0.1, Reorder: 0.1}, Kinds: FaultKindsData()}},
		{"nodup", fault.Plan{Seed: 32, Msg: fault.Rates{Drop: 0.1, Reorder: 0.1, Spike: 0.05}, Kinds: FaultKindsData()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := lbConfig(prob)
			plan := tc.plan
			cfg.Faults = &plan
			cfg.poisonFree = true
			cfg.MaxTime = 5000
			cfg.MaxIter = 500000
			res, _, err := distRun(t, cfg, 2, DistWorkerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if hasNaN(res.State) {
				t.Fatalf("NaN in the solution: %d retries, faults %+v", res.LBRetries, res.FaultStats)
			}
			if res.FaultStats.Dropped == 0 || res.LBTransfers == 0 || res.LBRetries == 0 {
				t.Fatalf("vacuous cell: %d transfers, %d retries, faults %+v", res.LBTransfers, res.LBRetries, res.FaultStats)
			}
			t.Logf("converged %v, off the reference by %g, %d transfers, %d retries, faults %+v",
				res.Converged, maxDiffVsRef(t, res.State, ref), res.LBTransfers, res.LBRetries, res.FaultStats)
		})
	}
}
