// Package brusselator implements the paper's test problem (§4): the 1-D
// reaction-diffusion Brusselator, a large stiff ODE system from Hairer &
// Wanner modeling an oscillating chemical reaction.
//
// With N interior grid points and c = α(N+1)², the semi-discretized system
// for the concentrations u_i, v_i is
//
//	u'_i = 1 + u_i²v_i − 4u_i + c(u_{i−1} − 2u_i + u_{i+1})
//	v'_i = 3u_i − u_i²v_i + c(v_{i−1} − 2v_i + v_{i+1})
//
// with Dirichlet boundaries u_0 = u_{N+1} = 1, v_0 = v_{N+1} = 3 (the
// original Hairer–Wanner values; the paper's "α(N+1)²" boundary line is an
// OCR artifact, see DESIGN.md) and initial data u_i(0) = 1 + sin(2πx_i),
// v_i(0) = 3, x_i = i/(N+1), on the time window [0, T], T = 10, α = 1/50.
//
// The unit of distribution is the grid cell: cell i carries the pair
// (u_i, v_i), i.e. the two consecutive entries y_{2i-1}, y_{2i} of the
// paper's interleaved state vector y = (u_1, v_1, ..., u_N, v_N). A cell
// update depends on the neighboring cell on each side — exactly the paper's
// "two spatial components before y_p and two after y_q" — so the halo is
// one cell. The pair must be advanced jointly (a 2×2 Newton per implicit
// Euler step): freezing v over the whole window while sweeping u would make
// the autocatalytic term u²v blow up in finite time.
//
// The package exposes the problem twice:
//   - as an iterative.Problem (cell-wise implicit-Euler waveform
//     relaxation, the paper's two-stage "Euler outside, Newton inside"
//     scheme of §5.1), solved by the parallel engines; and
//   - as an ode.System for a full-system sequential reference integration
//     that the parallel solutions are validated against.
package brusselator

import (
	"fmt"
	"math"

	"aiac/internal/iterative"
	"aiac/internal/solver"
)

// Params defines a Brusselator instance and its discretization. The zero
// value is not usable; call Validate or use New.
type Params struct {
	N     int     // interior grid points (cells); the state has 2N scalars
	Alpha float64 // diffusion coefficient; the paper fixes 1/50
	T     float64 // time horizon; the paper fixes 10
	Dt    float64 // implicit Euler step
	// NewtonTol and MaxNewton control the inner per-step Newton solves.
	NewtonTol float64
	MaxNewton int
	// Init0, when non-nil, overrides the paper's initial condition with
	// per-cell (u, v) pairs — used by the windowing driver to chain time
	// windows. Length must be N.
	Init0 [][2]float64
}

// DefaultParams returns the paper's configuration for a given grid size and
// time step.
func DefaultParams(n int, dt float64) Params {
	return Params{N: n, Alpha: 1.0 / 50.0, T: 10, Dt: dt, NewtonTol: 1e-10, MaxNewton: 25}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("brusselator: N = %d, need >= 1", p.N)
	case p.Alpha <= 0:
		return fmt.Errorf("brusselator: Alpha = %g, need > 0", p.Alpha)
	case p.T <= 0:
		return fmt.Errorf("brusselator: T = %g, need > 0", p.T)
	case p.Dt <= 0 || p.Dt > p.T:
		return fmt.Errorf("brusselator: Dt = %g, need in (0, T]", p.Dt)
	case p.NewtonTol <= 0:
		return fmt.Errorf("brusselator: NewtonTol = %g, need > 0", p.NewtonTol)
	case p.MaxNewton < 1:
		return fmt.Errorf("brusselator: MaxNewton = %d, need >= 1", p.MaxNewton)
	case p.Init0 != nil && len(p.Init0) != p.N:
		return fmt.Errorf("brusselator: Init0 has %d cells, need %d", len(p.Init0), p.N)
	}
	return nil
}

// Steps returns the number of implicit Euler steps in [0, T].
func (p Params) Steps() int { return int(math.Round(p.T / p.Dt)) }

// C returns the discrete diffusion coefficient α(N+1)².
func (p Params) C() float64 { return p.Alpha * float64(p.N+1) * float64(p.N+1) }

const (
	boundaryU = 1.0
	boundaryV = 3.0
)

// InitU returns the initial concentration u_i(0) at interior cell i (1-based).
func (p Params) InitU(i int) float64 {
	x := float64(i) / float64(p.N+1)
	return 1 + math.Sin(2*math.Pi*x)
}

// Problem is the waveform-relaxation view of the Brusselator. Component k
// (0-based) is grid cell k+1; its trajectory interleaves the pair over
// time: traj[2t] = u(t_t), traj[2t+1] = v(t_t).
type Problem struct {
	p     Params
	steps int
	c     float64
	bound []float64 // constant boundary trajectory (u=1, v=3 interleaved)
}

// New builds the waveform problem, panicking on invalid parameters (use
// Params.Validate for graceful checking).
func New(p Params) *Problem {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	steps := p.Steps()
	pr := &Problem{
		p:     p,
		steps: steps,
		c:     p.C(),
		bound: make([]float64, 2*(steps+1)),
	}
	for t := 0; t <= steps; t++ {
		pr.bound[2*t] = boundaryU
		pr.bound[2*t+1] = boundaryV
	}
	return pr
}

// Params returns the problem parameters.
func (pr *Problem) Params() Params { return pr.p }

// Components implements iterative.Problem: one component per grid cell.
func (pr *Problem) Components() int { return pr.p.N }

// TrajLen implements iterative.Problem: (u, v) interleaved over steps+1
// time points.
func (pr *Problem) TrajLen() int { return 2 * (pr.steps + 1) }

// Halo implements iterative.Problem: a cell depends on one cell on each
// side, which is the paper's "two spatial components before y_p and two
// after y_q" in y-vector units.
func (pr *Problem) Halo() int { return 1 }

// Init implements iterative.Problem: the waveform initial guess is the
// initial condition held constant over the window.
func (pr *Problem) Init(k int) []float64 {
	out := make([]float64, pr.TrajLen())
	u0, v0 := pr.p.InitU(k+1), boundaryV
	if pr.p.Init0 != nil {
		u0, v0 = pr.p.Init0[k][0], pr.p.Init0[k][1]
	}
	for t := 0; t <= pr.steps; t++ {
		out[2*t] = u0
		out[2*t+1] = v0
	}
	return out
}

// FinalState extracts the per-cell (u, v) values at the window's final time
// from a solved state (component-major interleaved trajectories), in the
// form Params.Init0 accepts — this is how successive time windows chain.
func FinalState(state [][]float64) [][2]float64 {
	out := make([][2]float64, len(state))
	for k, tr := range state {
		out[k] = [2]float64{tr[len(tr)-2], tr[len(tr)-1]}
	}
	return out
}

// cellSys is the 2×2 implicit-Euler system of one Brusselator cell at one
// time step:
//
//	f1 = u − uPrev − dt·(1 + u²v − 4u + c·(uL − 2u + uR))
//	f2 = v − vPrev − dt·(3u − u²v + c·(vL − 2v + vR))
//
// Update itself runs solver.Newton2Bruss, the hand-inlined version of this
// system; cellSys is kept as the readable reference the tests check the
// specialized kernel against, iterate for iterate. Eval therefore evaluates
// the same reassociated expressions as Newton2Bruss — operation for
// operation, so the iterates agree bitwise, not just to rounding.
type cellSys struct {
	dt, c          float64
	uPrev, vPrev   float64
	uL, vL, uR, vR float64
}

// Eval implements solver.Sys2.
func (s cellSys) Eval(u, v float64) (f1, f2, j11, j12, j21, j22 float64) {
	dtc := s.dt * s.c
	a1 := 1 + 4*s.dt + 2*dtc
	b1 := 1 + 2*dtc
	ndt3 := -(3 * s.dt)
	uu := u * u
	dtuuv := s.dt * uu * v
	f1 = math.FMA(a1, u, -s.dt-dtc*(s.uL+s.uR)-s.uPrev) - dtuuv
	f2 = math.FMA(ndt3, u, math.FMA(b1, v, -dtc*(s.vL+s.vR)-s.vPrev)) + dtuuv
	dt2u := 2 * s.dt * u
	j11 = math.FMA(dt2u, -v, a1)
	j12 = -s.dt * uu
	j21 = math.FMA(dt2u, v, ndt3)
	j22 = math.FMA(s.dt, uu, b1)
	return
}

// Update implements iterative.Problem: one implicit-Euler sweep of cell k
// over the whole window. Each time step solves the 2×2 nonlinear system for
// (u, v) jointly by Newton, warm-started from the previous iterate (§5.1's
// Solve); neighbor-cell trajectories come from the previous outer iteration.
// The returned work is the total Newton iteration count, which is what makes
// the cost adaptive: converged cells cost one iteration per step, active
// cells several. The sweep performs no heap allocation.
func (pr *Problem) Update(k int, old []float64, get func(i int) []float64, out []float64) float64 {
	work, _ := pr.UpdateFrom(k, 0, old, get, out)
	return work
}

// UpdatePair implements iterative.PairUpdater: two cells advanced by one
// fused window solve with their Newton chains interleaved. Bit-identical
// to Update(j1) followed by Update(j2) — the caller must guarantee Jacobi
// reads (both cells see previous-iteration neighbor trajectories).
func (pr *Problem) UpdatePair(j1, j2 int, old1, old2 []float64, get func(i int) []float64, out1, out2 []float64) (w1, w2 float64) {
	w1, w2, _, _ = pr.UpdatePairFrom(j1, j2, 0, 0, old1, old2, get, out1, out2)
	return w1, w2
}

// UpdateFrom implements iterative.PrefixUpdater. A time step is the entry
// pair (2t, 2t+1) and reads nothing later than itself — step t of the two
// neighbours and step t−1 of its own output — so a frozen prefix of `from`
// entries is from/2 − 1 whole steps after the initial condition, and a step
// solved again at the point it last returned passes the residual test on its
// first evaluation: the skipped steps are charged exactly what solving them
// would have cost.
func (pr *Problem) UpdateFrom(k, from int, old []float64, get func(i int) []float64, out []float64) (work float64, quiet int) {
	left, right := pr.neighbors(k, get)
	out[0], out[1] = old[0], old[1] // the initial condition never changes
	work, quietSteps, failStep := solver.BrussWindowFrom(pr.p.Dt, pr.c, pr.p.NewtonTol, pr.p.MaxNewton,
		pr.steps, frozenSteps(from), left, right, old, out)
	if failStep != 0 {
		panic(newtonFailure(k, failStep, pr.p.MaxNewton))
	}
	return work, 2 * (quietSteps + 1)
}

// UpdatePairFrom implements iterative.PrefixUpdater's fused update. The two
// lanes advance in lockstep, so both start after the shorter prefix.
func (pr *Problem) UpdatePairFrom(j1, j2, from1, from2 int, old1, old2 []float64, get func(i int) []float64, out1, out2 []float64) (w1, w2 float64, quiet1, quiet2 int) {
	left1, right1 := pr.neighbors(j1, get)
	left2, right2 := pr.neighbors(j2, get)
	out1[0], out1[1] = old1[0], old1[1]
	out2[0], out2[1] = old2[0], old2[1]
	w1, w2, q1, q2, fail1, fail2 := solver.BrussWindowPairFrom(pr.p.Dt, pr.c, pr.p.NewtonTol, pr.p.MaxNewton,
		pr.steps, frozenSteps(min(from1, from2)), left1, right1, old1, out1, left2, right2, old2, out2)
	if fail1 != 0 {
		panic(newtonFailure(j1, fail1, pr.p.MaxNewton))
	}
	if fail2 != 0 {
		panic(newtonFailure(j2, fail2, pr.p.MaxNewton))
	}
	return w1, w2, 2 * (q1 + 1), 2 * (q2 + 1)
}

// frozenSteps converts a frozen prefix in trajectory entries to whole time
// steps after the initial condition (entries 0 and 1).
func frozenSteps(from int) int {
	return max(from/2-1, 0)
}

// neighbors resolves a cell's halo trajectories, substituting the constant
// boundary trajectory at the domain edges.
func (pr *Problem) neighbors(k int, get func(i int) []float64) (left, right []float64) {
	if k < 0 || k >= pr.p.N {
		panic(fmt.Sprintf("brusselator: cell %d out of range", k))
	}
	left = pr.bound
	if k > 0 {
		left = get(k - 1)
	}
	right = pr.bound
	if k < pr.p.N-1 {
		right = get(k + 1)
	}
	return left, right
}

func newtonFailure(k, step, maxNewton int) string {
	return fmt.Sprintf("brusselator: Newton failed at cell %d step %d (singular Jacobian or no convergence in %d iterations)", k, step, maxNewton)
}

// U extracts the u trajectory of a cell from its interleaved trajectory.
func U(traj []float64) []float64 {
	out := make([]float64, len(traj)/2)
	for t := range out {
		out[t] = traj[2*t]
	}
	return out
}

// V extracts the v trajectory of a cell from its interleaved trajectory.
func V(traj []float64) []float64 {
	out := make([]float64, len(traj)/2)
	for t := range out {
		out[t] = traj[2*t+1]
	}
	return out
}

var (
	_ iterative.Problem       = (*Problem)(nil)
	_ iterative.PairUpdater   = (*Problem)(nil)
	_ iterative.PrefixUpdater = (*Problem)(nil)
)
