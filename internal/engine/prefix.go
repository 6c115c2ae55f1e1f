package engine

import (
	"sync/atomic"

	"aiac/internal/iterative"
)

// What a sweep may skip (DESIGN §4.2): the node-side half of the frozen-prefix
// bookkeeping whose store-side half is compSlot.same. sweep and recvBoundary
// (node.go) are the only writers of the counts.

// from is the promise the sweep makes a PrefixUpdater about component j: how
// many leading entries of everything its update reads — its own trajectory
// and halo neighbours on either side — are what the previous sweep read
// there. Positions outside the domain are boundary conditions, which never
// change. Rule d: under local Gauss-Seidel an update reads buf for the
// components before it, not what val held, and nothing is promised.
func (n *node) from(j int) int {
	if n.cfg.GaussSeidelLocal {
		return 0
	}
	f := n.trajLen
	for i := max(j-n.halo, 0); i <= min(j+n.halo, n.m-1); i++ {
		f = min(f, n.val.sameAt(i))
	}
	n.frozen += f
	n.entries += n.trajLen
	return f
}

// skipTally sums, over the nodes of a run, the trajectory entries their
// sweeps promised frozen and the entries they produced.
type skipTally struct{ frozen, entries atomic.Int64 }

// plainUpdater adapts a problem without the PrefixUpdater extension, so the
// sweep has one update path: from is ignored and nothing is reported quiet.
type plainUpdater struct {
	iterative.Problem
	pair iterative.PairUpdater // nil when the problem has none; the sweep then never fuses
}

func (p plainUpdater) UpdateFrom(j, _ int, old []float64, get func(i int) []float64, out []float64) (float64, int) {
	return p.Update(j, old, get, out), 0
}

func (p plainUpdater) UpdatePairFrom(j1, j2, _, _ int, old1, old2 []float64, get func(i int) []float64, out1, out2 []float64) (w1, w2 float64, quiet1, quiet2 int) {
	w1, w2 = p.pair.UpdatePair(j1, j2, old1, old2, get, out1, out2)
	return w1, w2, 0, 0
}

// asPrefixUpdater returns p's PrefixUpdater extension, or p adapted to it, and
// whether the result can fuse two updates.
func asPrefixUpdater(p iterative.Problem) (upd iterative.PrefixUpdater, canPair bool) {
	if pu, ok := p.(iterative.PrefixUpdater); ok {
		return pu, true
	}
	pair, ok := p.(iterative.PairUpdater)
	return plainUpdater{p, pair}, ok
}
