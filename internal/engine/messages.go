package engine

// Engine message kinds: the data plane, below runenv.ControlKindBase.
const (
	// kindBoundary carries a halo update plus the sender's load estimate
	// (the paper attaches the residual and the global positions to every
	// data exchange, Algorithm 4).
	kindBoundary = 1 + iota
	// kindLBData ships components to a neighbor (Algorithm 5/6).
	kindLBData
	// kindLBAck confirms an LB transfer was integrated.
	kindLBAck
	// kindLBReject returns an LB transfer that could not be integrated
	// (crossing transfers or a stale position); the sender restores the
	// components. This handshake is our concurrency-safety addition to
	// the paper's protocol — see DESIGN.md.
	kindLBReject
)

// boundaryMsg is the payload of kindBoundary. Comps[i] is the trajectory of
// global component Pos+i; the receiver validates the positions against its
// expected halo range and drops mismatches (Algorithm 7), but always
// records Load and Iter.
type boundaryMsg struct {
	Iter  int
	Pos   int
	Comps [][]float64
	Load  float64
}

// lbDataMsg is the payload of kindLBData. Comps holds Count transferred
// components plus Halo dependency components, all in ascending global
// position starting at Pos. When sent rightward the dependencies come
// first; when sent leftward the transferred components come first.
//
// XferID identifies the transfer across retransmissions: the sender reuses
// the id when it retries an unanswered transfer, and the receiver's ledger
// guarantees at-most-once integration and rejection finality per id.
type lbDataMsg struct {
	XferID uint64
	Pos    int
	Count  int
	Comps  [][]float64
	Load   float64
}

// lbCtrlMsg is the payload of kindLBAck and kindLBReject, echoing the
// transfer it answers. Senders match answers by XferID, so duplicated or
// reordered control messages for older transfers are ignored.
type lbCtrlMsg struct {
	XferID uint64
	Pos    int
	Count  int
}

const msgHeaderBytes = 32

// FaultKindsLB returns the message kinds of the load-balancing handshake,
// for scoping a fault.Plan to LB traffic only.
func FaultKindsLB() []int { return []int{kindLBData, kindLBAck, kindLBReject} }

// FaultKindsBoundary returns the boundary halo-exchange message kind.
func FaultKindsBoundary() []int { return []int{kindBoundary} }

// FaultKindsData returns every data-plane engine kind (boundary exchange
// plus the LB handshake) — the default scope of a fault plan.
func FaultKindsData() []int { return []int{kindBoundary, kindLBData, kindLBAck, kindLBReject} }

// trajBytes estimates the wire size of n trajectories of the given length.
func trajBytes(n, trajLen int) int {
	return msgHeaderBytes + n*trajLen*8
}
