package brusselator

import (
	"math"

	"aiac/internal/linalg"
	"aiac/internal/ode"
)

// System is the full-system ODE view of the same Brusselator instance,
// used for the sequential reference integration: all 2N equations are
// advanced together by implicit Euler with a banded (kl = ku = 2) Newton
// solve per step. Its solution is the fixed point the waveform relaxation
// must converge to.
type System struct {
	p Params
	c float64
}

// NewSystem builds the full-system view.
func NewSystem(p Params) *System {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &System{p: p, c: p.C()}
}

// Dim implements ode.System.
func (s *System) Dim() int { return 2 * s.p.N }

// Bandwidth implements ode.System.
func (s *System) Bandwidth() (int, int) { return 2, 2 }

// Y0 returns the initial state in the interleaved (u_1, v_1, ...) layout,
// honoring a Params.Init0 override.
func (s *System) Y0() []float64 {
	y := make([]float64, 2*s.p.N)
	for k := 0; k < s.p.N; k++ {
		if s.p.Init0 != nil {
			y[2*k], y[2*k+1] = s.p.Init0[k][0], s.p.Init0[k][1]
		} else {
			y[2*k] = s.p.InitU(k + 1)
			y[2*k+1] = boundaryV
		}
	}
	return y
}

// F implements ode.System.
func (s *System) F(t float64, y, dydt []float64) {
	n, c := s.p.N, s.c
	for k := 0; k < n; k++ {
		u, v := y[2*k], y[2*k+1]
		uL, vL := boundaryU, boundaryV
		if k > 0 {
			uL, vL = y[2*k-2], y[2*k-1]
		}
		uR, vR := boundaryU, boundaryV
		if k < n-1 {
			uR, vR = y[2*k+2], y[2*k+3]
		}
		dydt[2*k] = 1 + u*u*v - 4*u + c*(uL-2*u+uR)
		dydt[2*k+1] = 3*u - u*u*v + c*(vL-2*v+vR)
	}
}

// Jac implements ode.System.
func (s *System) Jac(t float64, y []float64, jac *linalg.Banded) {
	n, c := s.p.N, s.c
	for k := 0; k < n; k++ {
		u, v := y[2*k], y[2*k+1]
		iu, iv := 2*k, 2*k+1
		// u equation
		jac.Set(iu, iu, 2*u*v-4-2*c)
		jac.Set(iu, iv, u*u)
		if k > 0 {
			jac.Set(iu, iu-2, c)
		}
		if k < n-1 {
			jac.Set(iu, iu+2, c)
		}
		// v equation
		jac.Set(iv, iu, 3-2*u*v)
		jac.Set(iv, iv, -u*u-2*c)
		if k > 0 {
			jac.Set(iv, iv-2, c)
		}
		if k < n-1 {
			jac.Set(iv, iv+2, c)
		}
	}
}

var _ ode.System = (*System)(nil)

// Reference integrates the full system sequentially with implicit Euler and
// returns cell-major interleaved trajectories in the waveform solver's
// layout (traj[k][2t] = u_{k+1}(t_t), traj[k][2t+1] = v_{k+1}(t_t)) along
// with the total Newton iteration count.
func Reference(p Params) (traj [][]float64, newtonIters int, err error) {
	sys := NewSystem(p)
	res, err := ode.Integrate(sys, sys.Y0(), 0, p.Dt, p.Steps(), ode.Options{
		NewtonTol: p.NewtonTol,
		MaxNewton: p.MaxNewton * 4, // the full coupled solve may need more
	})
	if err != nil {
		return nil, 0, err
	}
	traj = make([][]float64, p.N)
	for k := 0; k < p.N; k++ {
		traj[k] = make([]float64, 2*len(res.Y))
		for t := range res.Y {
			traj[k][2*t] = res.Y[t][2*k]
			traj[k][2*t+1] = res.Y[t][2*k+1]
		}
	}
	return traj, res.NewtonIters, nil
}

// MaxTrajDiff returns the largest pointwise difference between two
// component-major trajectory sets of identical shape, or +Inf as soon as a
// difference is NaN: a NaN in either set is no answer, and +Inf fails every
// comparison against a bound, however it is written.
func MaxTrajDiff(a, b [][]float64) float64 {
	if len(a) != len(b) {
		panic("brusselator: trajectory sets differ in component count")
	}
	m := 0.0
	for j := range a {
		if len(a[j]) != len(b[j]) {
			panic("brusselator: trajectories differ in length")
		}
		for i, v := range a[j] {
			d := math.Abs(v - b[j][i])
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			m = max(m, d)
		}
	}
	return m
}
