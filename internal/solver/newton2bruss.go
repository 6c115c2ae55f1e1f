package solver

import "math"

// Newton2Bruss is the specialized hot path behind the bundled Brusselator
// kernel: one implicit-Euler time step of a 1-D reaction-diffusion cell,
//
//	f1 = u − uPrev − dt·(1 + u²v − 4u + c·(uL − 2u + uR))
//	f2 = v − vPrev − dt·(3u − u²v + c·(vL − 2v + vR))
//
// solved for (u, v) by Newton with a closed-form 2×2 inverse, warm-started
// at (u0, v0). It is Newton2Sys with the system evaluation inlined by hand
// and the algebra reassociated around the two unknowns:
//
//	f1 = a1·u − dt·u²v + k1        a1 = 1 + 4dt + 2dt·c
//	f2 = b1·v + dt·u²v − 3dt·u + k2    b1 = 1 + 2dt·c
//
// so everything except u and v is hoisted out of the Newton loop: no
// function-valued callback, no per-call struct, ~half the floating-point
// operations per iteration on a much shorter dependency chain, and the
// Jacobian only evaluated when the residual test fails (the common
// warm-started step converges immediately and never needs it).
//
// The uPrev/vPrev subtraction is deliberately the last operation forming
// k1/k2: in the time-stepping loop that drives this kernel, uPrev is the
// previous step's result — the serial dependency between steps — while the
// warm start (u0, v0) comes from the previous outer sweep and is available
// early. Keeping uPrev out of every other term lets out-of-order hardware
// compute the whole first Newton update (including its divide) in the
// shadow of the previous step's tail, which is worth more than any
// per-operation saving on this latency-bound chain. cellSys in
// internal/brusselator evaluates the identical reassociated expressions,
// so the generic Newton2Sys path and this one produce bit-identical
// iterates.
//
// It reports ok=false instead of building an error: the caller's retry logic
// only branches on failure, and error construction would allocate in the
// innermost loop. iters counts residual evaluations, like Newton2Sys.
func Newton2Bruss(dt, c, uPrev, vPrev, uL, vL, uR, vR, u0, v0, tol float64, maxIter int) (u, v float64, iters int, ok bool) {
	if maxIter <= 0 {
		panic("solver: maxIter must be positive")
	}
	dtc := dt * c
	a1 := 1 + 4*dt + 2*dtc
	b1 := 1 + 2*dtc
	dt2 := 2 * dt
	ndt3 := -(3 * dt)
	k1 := -dt - dtc*(uL+uR) - uPrev
	k2 := -dtc*(vL+vR) - vPrev
	ntol := -tol
	u, v = u0, v0
	for iters = 1; iters <= maxIter; iters++ {
		uu := u * u
		dtuuv := dt * uu * v
		f1 := math.FMA(a1, u, k1) - dtuuv
		f2 := math.FMA(ndt3, u, math.FMA(b1, v, k2)) + dtuuv
		// |f| <= tol as a two-sided compare: math.Abs has no amd64 intrinsic
		// and moves every operand through a general-purpose register. Same
		// truth value for every input, NaN (false) and ±Inf included.
		if f1 <= tol && f1 >= ntol && f2 <= tol && f2 >= ntol {
			return u, v, iters, true
		}
		nv := -v
		dt2u := dt2 * u
		a := math.FMA(dt2u, nv, a1)
		b := -dt * uu
		cj := math.FMA(dt2u, v, ndt3)
		d := math.FMA(dt, uu, b1)
		det := a*d - b*cj
		if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
			return u, v, iters, false
		}
		// one reciprocal instead of two dependent divisions (the division
		// unit is the other serial bottleneck of this loop)
		inv := 1 / det
		u -= (d*f1 - b*f2) * inv
		v -= (a*f2 - cj*f1) * inv
	}
	return u, v, maxIter, false
}

// BrussWindowFrom advances one Brusselator cell over a whole time window:
// steps sequential implicit-Euler steps, each solved like Newton2Bruss,
// warm-started from the previous sweep's trajectory in old and retried once
// from the previous time level when the warm start fails. left, right, old,
// and out are interleaved (u, v) trajectories of length 2*(steps+1); the
// caller presets out[0], out[1] with the initial condition. Results land in
// out, work accumulates Newton iterations across all steps and retries, and
// failStep is 0 on success or the 1-based time step whose retry also failed
// (out is then valid only before that step).
//
// Steps 1..from are not solved: the caller asserts that for them left, right
// and the preset out[0], out[1] are bit-identical to what the call that
// produced old read, so solving them again would evaluate the residual at
// the very point that call returned, with the very coefficients that passed
// there — one evaluation, the warm start returned unchanged. They are copied
// old → out and charged that one evaluation each; work only ever sums whole
// numbers, so the total is the full solve's to the bit. from = 0 solves
// everything and asserts nothing.
//
// quiet is the number of leading steps — the skipped ones included — that
// returned their warm start after one evaluation: out equals old bit for bit
// up to there. It is what the next call over the same cell can hand its
// neighbours as their from, and is unspecified on failure.
//
// This exists because the per-step call boundary was the last overhead in
// the sweep hot path: calling Newton2Bruss once per step re-derives the
// loop-invariant coefficients and forces every live value through the
// register-spilling call ABI 50+ times per cell. Fusing the step loop keeps
// (u, v) and all coefficients in registers across the window. The inner
// loop is textually Newton2Bruss's and must stay operation-for-operation
// identical — TestBrussWindowMatchesStepwise pins the equivalence bitwise.
// The cold retry path simply calls Newton2Bruss, which recomputes k1/k2
// with the same operations and so stays on the same iterates.
func BrussWindowFrom(dt, c, tol float64, maxIter, steps, from int, left, right, old, out []float64) (work float64, quiet, failStep int) {
	if maxIter <= 0 {
		panic("solver: maxIter must be positive")
	}
	if from < 0 || from > steps {
		panic("solver: from outside [0, steps]")
	}
	n := 2 * (steps + 1)
	left, right, old, out = left[:n], right[:n], old[:n], out[:n]
	dtc := dt * c
	a1 := 1 + 4*dt + 2*dtc
	b1 := 1 + 2*dtc
	dt2 := 2 * dt
	ndt3 := -(3 * dt)
	ntol := -tol
	start := 2 * (from + 1)
	copy(out[2:start], old[2:start])
	// evals counts residual evaluations as an integer: cheaper to add than a
	// float64, and a step is quiet exactly when the count still equals the
	// step number — every step costs at least one evaluation, a retry at
	// least one more.
	evals := from
	quiet = from
	uPrev, vPrev := out[start-2], out[start-1]
	for i, t := start, from+1; i < n-1; i, t = i+2, t+1 {
		uL, vL := left[i], left[i+1]
		uR, vR := right[i], right[i+1]
		k1 := -dt - dtc*(uL+uR) - uPrev
		k2 := -dtc*(vL+vR) - vPrev
		u, v := old[i], old[i+1]
		conv := false
		iters := 1
		for ; iters <= maxIter; iters++ {
			uu := u * u
			dtuuv := dt * uu * v
			f1 := math.FMA(a1, u, k1) - dtuuv
			f2 := math.FMA(ndt3, u, math.FMA(b1, v, k2)) + dtuuv
			if f1 <= tol && f1 >= ntol && f2 <= tol && f2 >= ntol {
				conv = true
				break
			}
			nv := -v
			dt2u := dt2 * u
			a := math.FMA(dt2u, nv, a1)
			b := -dt * uu
			cj := math.FMA(dt2u, v, ndt3)
			d := math.FMA(dt, uu, b1)
			det := a*d - b*cj
			if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
				break
			}
			inv := 1 / det
			u -= (d*f1 - b*f2) * inv
			v -= (a*f2 - cj*f1) * inv
		}
		if iters > maxIter {
			iters = maxIter // match Newton2Bruss's exhaustion count
		}
		evals += iters
		if !conv {
			// Cold path: early in the outer iteration the waveform iterate
			// can be a poor start; retry from the previous time level.
			var ok bool
			u, v, iters, ok = Newton2Bruss(dt, c, uPrev, vPrev, uL, vL, uR, vR,
				uPrev, vPrev, tol, maxIter)
			evals += iters
			if !ok {
				return float64(evals), quiet, t
			}
		}
		if evals == t {
			quiet = t
		}
		out[i], out[i+1] = u, v
		uPrev, vPrev = u, v
	}
	return float64(evals), quiet, 0
}

// BrussWindow is BrussWindowFrom with nothing skipped.
func BrussWindow(dt, c, tol float64, maxIter, steps int, left, right, old, out []float64) (work float64, failStep int) {
	work, _, failStep = BrussWindowFrom(dt, c, tol, maxIter, steps, 0, left, right, old, out)
	return work, failStep
}

// BrussWindowPairFrom is BrussWindowFrom over two independent cells at once,
// their Newton iterations interleaved in lockstep. One cell's solve is a
// serial dependency chain (residual → Jacobian → divide → update, step after
// step) that leaves most execution ports idle; interleaving a second,
// independent chain nearly doubles instruction-level parallelism without
// touching either cell's arithmetic. Every floating-point operation of each
// cell has exactly the operands it would have in a solo BrussWindowFrom
// call, so outputs, work and quiet counts are bit-identical to two
// sequential windows — TestBrussWindowPairMatchesSolo pins this. Valid only
// when the two cells are independent within the sweep (Jacobi neighbor
// reads), which the caller guarantees.
//
// The lanes advance together, so there is one from: the caller's assertion
// must hold for both cells (it passes the smaller of their two prefixes).
//
// failA/failB report the first failing step per cell as in BrussWindowFrom;
// on any failure the function returns immediately and the remaining outputs
// are unspecified (callers panic on failure).
func BrussWindowPairFrom(dt, c, tol float64, maxIter, steps, from int,
	leftA, rightA, oldA, outA,
	leftB, rightB, oldB, outB []float64) (workA, workB float64, quietA, quietB, failA, failB int) {
	if maxIter <= 0 {
		panic("solver: maxIter must be positive")
	}
	if from < 0 || from > steps {
		panic("solver: from outside [0, steps]")
	}
	n := 2 * (steps + 1)
	leftA, rightA, oldA, outA = leftA[:n], rightA[:n], oldA[:n], outA[:n]
	leftB, rightB, oldB, outB = leftB[:n], rightB[:n], oldB[:n], outB[:n]
	dtc := dt * c
	a1 := 1 + 4*dt + 2*dtc
	b1 := 1 + 2*dtc
	dt2 := 2 * dt
	ndt3 := -(3 * dt)
	ntol := -tol
	start := 2 * (from + 1)
	copy(outA[2:start], oldA[2:start])
	copy(outB[2:start], oldB[2:start])
	evalsA, evalsB := from, from // see BrussWindowFrom
	quietA, quietB = from, from
	uPrevA, vPrevA := outA[start-2], outA[start-1]
	uPrevB, vPrevB := outB[start-2], outB[start-1]
	for i, t := start, from+1; i < n-1; i, t = i+2, t+1 {
		uLA, vLA := leftA[i], leftA[i+1]
		uRA, vRA := rightA[i], rightA[i+1]
		uLB, vLB := leftB[i], leftB[i+1]
		uRB, vRB := rightB[i], rightB[i+1]
		kA1 := -dt - dtc*(uLA+uRA) - uPrevA
		kA2 := -dtc*(vLA+vRA) - vPrevA
		kB1 := -dt - dtc*(uLB+uRB) - uPrevB
		kB2 := -dtc*(vLB+vRB) - vPrevB
		uA, vA := oldA[i], oldA[i+1]
		uB, vB := oldB[i], oldB[i+1]
		convA, convB := false, false
		actA, actB := true, true
		itA, itB := 0, 0
		for actA || actB {
			if actA {
				itA++
				uu := uA * uA
				dtuuv := dt * uu * vA
				f1 := math.FMA(a1, uA, kA1) - dtuuv
				f2 := math.FMA(ndt3, uA, math.FMA(b1, vA, kA2)) + dtuuv
				if f1 <= tol && f1 >= ntol && f2 <= tol && f2 >= ntol {
					convA, actA = true, false
				} else {
					nv := -vA
					dt2u := dt2 * uA
					a := math.FMA(dt2u, nv, a1)
					b := -dt * uu
					cj := math.FMA(dt2u, vA, ndt3)
					d := math.FMA(dt, uu, b1)
					det := a*d - b*cj
					if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
						actA = false
					} else {
						inv := 1 / det
						uA -= (d*f1 - b*f2) * inv
						vA -= (a*f2 - cj*f1) * inv
						if itA == maxIter {
							actA = false
						}
					}
				}
			}
			if actB {
				itB++
				uu := uB * uB
				dtuuv := dt * uu * vB
				f1 := math.FMA(a1, uB, kB1) - dtuuv
				f2 := math.FMA(ndt3, uB, math.FMA(b1, vB, kB2)) + dtuuv
				if f1 <= tol && f1 >= ntol && f2 <= tol && f2 >= ntol {
					convB, actB = true, false
				} else {
					nv := -vB
					dt2u := dt2 * uB
					a := math.FMA(dt2u, nv, a1)
					b := -dt * uu
					cj := math.FMA(dt2u, vB, ndt3)
					d := math.FMA(dt, uu, b1)
					det := a*d - b*cj
					if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
						actB = false
					} else {
						inv := 1 / det
						uB -= (d*f1 - b*f2) * inv
						vB -= (a*f2 - cj*f1) * inv
						if itB == maxIter {
							actB = false
						}
					}
				}
			}
		}
		evalsA += itA
		evalsB += itB
		if !convA {
			var r int
			var ok bool
			uA, vA, r, ok = Newton2Bruss(dt, c, uPrevA, vPrevA, uLA, vLA, uRA, vRA,
				uPrevA, vPrevA, tol, maxIter)
			evalsA += r
			if !ok {
				return float64(evalsA), float64(evalsB), quietA, quietB, t, 0
			}
		}
		if !convB {
			var r int
			var ok bool
			uB, vB, r, ok = Newton2Bruss(dt, c, uPrevB, vPrevB, uLB, vLB, uRB, vRB,
				uPrevB, vPrevB, tol, maxIter)
			evalsB += r
			if !ok {
				return float64(evalsA), float64(evalsB), quietA, quietB, 0, t
			}
		}
		if evalsA == t {
			quietA = t
		}
		if evalsB == t {
			quietB = t
		}
		outA[i], outA[i+1] = uA, vA
		outB[i], outB[i+1] = uB, vB
		uPrevA, vPrevA = uA, vA
		uPrevB, vPrevB = uB, vB
	}
	return float64(evalsA), float64(evalsB), quietA, quietB, 0, 0
}

// BrussWindowPair is BrussWindowPairFrom with nothing skipped.
func BrussWindowPair(dt, c, tol float64, maxIter, steps int,
	leftA, rightA, oldA, outA,
	leftB, rightB, oldB, outB []float64) (workA, workB float64, failA, failB int) {
	workA, workB, _, _, failA, failB = BrussWindowPairFrom(dt, c, tol, maxIter, steps, 0,
		leftA, rightA, oldA, outA, leftB, rightB, oldB, outB)
	return workA, workB, failA, failB
}
