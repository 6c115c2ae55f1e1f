package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

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

// recycleGolden holds digest("%+v", Result) of every grid cell, computed on
// the last commit whose exchange path cloned every halo and had no free list
// (34a67bb). Never regenerate them from the code under test: the poison shows
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
	for seed := int64(1); seed <= 5; seed++ {
		for _, drop := range []float64{0.05, 0.15, 0.30} {
			name := fmt.Sprintf("drop=%.2f/seed=%d", drop, seed)
			plan := recycleCell(seed, drop)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				clean, poisoned := run(t, plan, false, nil), run(t, plan, true, nil)
				if !reflect.DeepEqual(clean, poisoned) {
					t.Errorf("poisoning the free lists changed the run:\nclean    %+v\npoisoned %+v", clean, poisoned)
				}
				if clean.FaultStats.Duplicated == 0 || clean.LBTransfers == 0 {
					t.Errorf("vacuous cell: %d transfers, faults %+v", clean.LBTransfers, clean.FaultStats)
				}
				if got := digest("%+v", *clean); got != recycleGolden[name] {
					t.Errorf("result digest %s, want %s (time %v, iters %d, boundary msgs %d)",
						got, recycleGolden[name], clean.Time, clean.TotalIters, clean.BoundaryMsgs)
				}
			})
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
			want = append(want, cloneTraj(n.val.get(j)))
		}
		n.loadEst, n.nbLoad[dirLeft], n.nbLoadValid[dirLeft] = 1, 1e-3, true
		if !n.tryLB(dirLeft) {
			t.Fatal("no transfer initiated")
		}
		n.recvBoundary(runenv.Msg{From: 0, Kind: kindBoundary,
			Payload: boundaryMsg{Pos: n.startC - n.halo, Comps: freshTrajs(n.halo, n.trajLen)}})
		n.restoreLB(dirLeft) // what run does with a transfer still pending at halt
		for j := lo; j < hi; j++ {
			if got := n.val.get(j); !reflect.DeepEqual(got, want[j-lo]) {
				t.Fatalf("component %d restored as %v, shipped as %v", j, got, want[j-lo])
			}
		}
	})
	// Real goroutines, same plan: under -race a buffer two nodes hold at once
	// is a reported race. A real-time answer is only checked for poison — how
	// close it lands is the false-halt question of ROADMAP item 0.
	t.Run("rtime", func(t *testing.T) {
		t.Parallel()
		res := run(t, recycleCell(1, 0.15), true, rtime.Runner{Speedup: 200})
		if len(res.State) != prob.Components() {
			t.Fatalf("gathered %d components, want %d", len(res.State), prob.Components())
		}
		t.Logf("converged %v after %d iterations, %d transfers, faults %+v",
			res.Converged, res.TotalIters, res.LBTransfers, res.FaultStats)
	})
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
// rank next to a fast one — and checks that what it parks stays within
// maxFree buffers, and that its sends then drain the list.
func TestFreeListBounded(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 2).withDefaults()
	n := newNode(clockEnv{}, &cfg, 0)
	for it := 0; it < 10*maxFree; it++ {
		n.recvBoundary(runenv.Msg{From: 1, Kind: kindBoundary,
			Payload: boundaryMsg{Iter: it, Pos: n.endC, Comps: freshTrajs(n.halo, n.trajLen)}})
		if len(n.free) > maxFree {
			t.Fatalf("after %d halos the free list holds %d buffers, cap %d", it+1, len(n.free), maxFree)
		}
	}
	if len(n.free) != maxFree || cap(n.free) > 2*maxFree {
		t.Fatalf("free list len %d cap %d after %d halos, want len %d", len(n.free), cap(n.free), 10*maxFree, maxFree)
	}
	for i := 0; i < maxFree; i++ {
		if out := n.reuse(); len(out) != n.trajLen {
			t.Fatalf("send %d: reused buffer has %d values, want %d", i, len(out), n.trajLen)
		}
	}
	if len(n.free) != 0 {
		t.Fatalf("%d buffers left after %d sends", len(n.free), maxFree)
	}
}
