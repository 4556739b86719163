// Package refsol computes the reference ("optimal") solutions that the
// paper's accuracy metric measures against. Every reference takes one route:
// full multigrid, then V-cycles until the residual is at the double-precision
// floor — accurate far beyond the largest accuracy level (10⁹) the metric
// ever reads, so the route does not bias measurements (see REPRODUCTION.md,
// "Substitutions", and TestPathsAgreeAtEverySize).
//
// The band Cholesky solve is only a rescue, for V-cycles that do not
// contract. Up to guardMaxN the band factorization is still affordable, so
// there a 2D reference whose cycles fall behind the pace that reaches the
// residual target within guardCycles is handed to the band solve at once:
// strong anisotropy and rough coefficients stall point smoothers, and cycling
// on would cost more than the factorization it avoids. Past guardMaxN, and in
// 3D, the band solve takes over only once the cycle budget runs out far from
// the target.
//
// Band factorizations go through the *direct.Cache the caller lends (nil: a
// private one that dies with the call). A caller that computes several
// references, or that solves directly at the same sizes itself — the tuner,
// the experiment Runner — lends its own, so each (operator, size) is factored
// once for references and candidates together and the factorizations live
// exactly as long as their owner.
package refsol

import (
	"fmt"
	"math"

	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// guardMaxN is the largest 2D side at which a multigrid reference that
// cannot keep pace is replaced by the band solve before its cycle budget
// runs out (see the package doc). 3D has no guarded sizes: its band
// factorization is never the cheaper route (≈ 32 ms at N = 17 on a 2-vCPU
// Xeon, where a converged multigrid reference costs ≈ 0.8 ms).
const guardMaxN = 129

// guardCycles is the V-cycle budget of a guarded reference. At N = 129 one
// V-cycle costs ≈ 1/300 of the band factorization, which a tune's three
// references share, so about 100 cycles per reference is where the two
// routes cost the same. Poisson needs ≈ 9, varcoef σ = 2 ≈ 22 and aniso
// ε = 0.1 ≈ 73; aniso ε = 0.01 would need ≈ 600.
const guardCycles = 100

// relResidualTarget is the relative residual at which the multigrid
// reference solve is declared converged. The residual amplifies rounding
// error by 1/h², so ~1e-11 relative is the double-precision floor at the
// paper's data magnitudes; it leaves the reference ≈10³× more accurate
// than the largest accuracy level (10⁹) the metric ever reads.
const relResidualTarget = 1e-11

// maxRefCycles bounds the reference V-cycle iteration for the Poisson
// operator. Non-Poisson families get a much larger budget
// (maxRefCyclesHard): point-smoothed V-cycles converge slowly for strong
// anisotropy or rough coefficients, and the loop exits early the moment the
// residual target is met, so the larger cap costs nothing in the easy cases.
const (
	maxRefCycles     = 60
	maxRefCyclesHard = 600
)

// stalledResidualFactor is how far above relResidualTarget the multigrid
// reference may finish before it counts as stalled and is replaced by a
// direct solve. 100× (≈1e-9 relative) still leaves the reference ~10⁵×
// more accurate than the largest accuracy level the metric reads, while a
// genuine smoother stall stops orders of magnitude above it.
const stalledResidualFactor = 100

// stallFallbackMaxN caps the direct rescue of a stalled reference: at
// N = 513 the band factorization costs ~1 GB and a minute, beyond that it
// would silently hang or OOM, which is worse than failing loudly. The 3D
// cap is the direct-solve cap itself (the O(N⁷) factorization is the
// bottleneck, not accuracy).
const (
	stallFallbackMaxN   = 513
	stallFallbackMaxN3D = direct.Direct3DMaxN
)

// Compute returns the reference solution of p without mutating it, factoring
// through cache (nil: private to this call).
func Compute(p *problem.Problem, pool *sched.Pool, cache *direct.Cache) *grid.Grid {
	op := p.Operator()
	ws := mg.NewWorkspace(pool, op)
	if cache != nil {
		ws.FactorCache = cache
	}
	x := p.NewState()
	if converge(ws, p, x, op.Dim() == 2 && p.N <= guardMaxN) {
		ws.SolveDirect(x, p.B, nil)
	}
	return x
}

// residualTarget is the residual norm at which p's multigrid reference is
// converged.
func residualTarget(p *problem.Problem) float64 {
	return relResidualTarget * (grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1)
}

// converge runs full multigrid and then V-cycles on x until the residual
// target is met, and reports whether the band solve must take over: when
// guarded, as soon as the cycles fall behind the pace that meets the target
// within guardCycles; otherwise once the cycle budget runs out far from the
// target, where the band solve is still tractable (and with a panic where it
// is not).
func converge(ws *mg.Workspace, p *problem.Problem, x *grid.Grid, guarded bool) (band bool) {
	op := p.Operator()
	cycles := maxRefCycles
	if op.Family() != stencil.FamilyPoisson && op.Family() != stencil.FamilyPoisson3D {
		cycles = maxRefCyclesHard
	}
	target := residualTarget(p)
	norm := func() float64 { return stencil.OpResidualNorm(op.At(p.N), ws.Pool, x, p.B, p.H) }
	ws.RefFullMG(x, p.B, nil)
	res := norm()
	for c := 0; c < cycles && res > target; c++ {
		prev := res
		ws.RefVCycle(x, p.B, nil)
		res = norm()
		if guarded && !onPace(res, prev, target, guardCycles-c-1) {
			return true
		}
	}
	if res <= stalledResidualFactor*target {
		return false
	}
	// The V-cycle budget ran out far from the floor: point smoothers can
	// stall outright for strong anisotropy or rough coefficients at large N.
	// A stalled reference would silently mis-grade every accuracy
	// measurement built on it, so pay for the exact answer where the O(N⁴)
	// factorization is still tractable, and fail loudly where it is not — a
	// wrong reference is worse than no reference. (Falling a few cycles short
	// of the aspirational target is fine and does not trigger this: the
	// direct solve's own rounding floor at these sizes is no better.)
	fallbackMax := stallFallbackMaxN
	if op.Dim() == 3 {
		fallbackMax = stallFallbackMaxN3D
	}
	if p.N > fallbackMax {
		panic(fmt.Sprintf(
			"refsol: reference for %v at N=%d stalled after %d cycles and is too large to solve directly; reduce the problem size or use a milder operator parameter",
			op, p.N, cycles))
	}
	return true
}

// onPace reports whether V-cycles that keep contracting the residual by
// res/prev per cycle meet target within left more cycles.
func onPace(res, prev, target float64, left int) bool {
	if res <= target {
		return true
	}
	return res < prev && res*math.Pow(res/prev, float64(left)) <= target
}

// Attach computes the reference solution (see Compute) and stores it on the
// problem.
func Attach(p *problem.Problem, pool *sched.Pool, cache *direct.Cache) {
	if p.Optimal() != nil {
		return
	}
	p.SetOptimal(Compute(p, pool, cache))
}
