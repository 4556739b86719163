// Package refsol computes the reference ("optimal") solutions that the
// paper's accuracy metric measures against. Small grids are solved exactly
// by band Cholesky; larger grids, where an O(N⁴) factorization is
// impractical, are solved by full multigrid iterated to machine precision —
// accurate far beyond the largest accuracy level (10⁹) the metric ever
// reads, so the substitution does not bias measurements (see
// REPRODUCTION.md, "Substitutions").
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

	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// DirectMaxN is the largest 2D grid side solved directly; beyond it the
// converged-multigrid path is used.
const DirectMaxN = 129

// DirectMaxN3D is the 3D counterpart: the band factorization's storage
// grows like N⁵ (≈6 MB at N=17, ≈230 MB at N=33), so references switch to
// converged multigrid much earlier than in 2D.
const DirectMaxN3D = 17

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
	ws := mg.NewWorkspace(pool)
	ws.Op = op
	ws.FactorCache = cache
	x := p.NewState()
	directMax := DirectMaxN
	if op.Dim() == 3 {
		directMax = DirectMaxN3D
	}
	if p.N <= directMax {
		ws.SolveDirect(x, p.B, nil)
		return x
	}
	cycles := maxRefCycles
	if op.Family() != stencil.FamilyPoisson && op.Family() != stencil.FamilyPoisson3D {
		cycles = maxRefCyclesHard
	}
	scale := grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1
	ws.RefFullMG(x, p.B, nil)
	for c := 0; c < cycles; c++ {
		if op.At(p.N).ResidualNorm(pool, x, p.B, p.H) <= relResidualTarget*scale {
			break
		}
		ws.RefVCycle(x, p.B, nil)
	}
	if op.At(p.N).ResidualNorm(pool, x, p.B, p.H) > stalledResidualFactor*relResidualTarget*scale {
		// The V-cycle budget ran out far from the floor: point smoothers can
		// stall outright for strong anisotropy or rough coefficients at
		// large N. A stalled reference would silently mis-grade every
		// accuracy measurement built on it, so pay for the exact answer
		// where the O(N⁴) factorization is still tractable, and fail loudly
		// where it is not — a wrong reference is worse than no reference.
		// (Falling a few cycles short of the aspirational target is fine and
		// does not trigger this: the direct solve's own rounding floor at
		// these sizes is no better.)
		fallbackMax := stallFallbackMaxN
		if op.Dim() == 3 {
			fallbackMax = stallFallbackMaxN3D
		}
		if p.N > fallbackMax {
			panic(fmt.Sprintf(
				"refsol: reference for %v at N=%d stalled after %d cycles and is too large to solve directly; reduce the problem size or use a milder operator parameter",
				op, p.N, cycles))
		}
		ws.SolveDirect(x, p.B, nil)
	}
	return x
}

// Attach computes the reference solution (see Compute) and stores it on the
// problem.
func Attach(p *problem.Problem, pool *sched.Pool, cache *direct.Cache) {
	if p.Optimal() != nil {
		return
	}
	p.SetOptimal(Compute(p, pool, cache))
}
