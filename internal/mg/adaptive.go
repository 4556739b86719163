package mg

import (
	"fmt"
	"math"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// This file implements the dynamic tuning the paper sketches as future work
// (§6): "the use of dynamic tuning where an algorithm has the ability to
// adapt during execution based on some features of the intermediate state".
// AdaptiveSolver drives tuned RECURSE steps by the measured residual of the
// intermediate state rather than by iteration counts committed at training
// time: it stops as soon as the target reduction is reached, and when
// convergence stagnates it switches to a higher-accuracy tuned
// sub-algorithm — switching "between tuned versions of itself".

// AdaptiveResult reports what an adaptive solve did.
type AdaptiveResult struct {
	// Iters is the number of RECURSE steps executed.
	Iters int
	// Reduction is the achieved residual-norm reduction ‖r₀‖/‖r‖.
	Reduction float64
	// Escalations counts switches to a higher-accuracy sub-algorithm.
	Escalations int
	// FinalSub is the sub-accuracy index in use when the solve finished.
	FinalSub int
}

// AdaptiveSolver solves with runtime feedback. The residual norm is the
// computable proxy for the paper's accuracy metric (the true error is
// unavailable outside training), so targets are expressed as residual
// reductions. Like Executor, an AdaptiveSolver is a cheap per-solve value:
// concurrent solves should each construct their own, sharing the
// concurrency-safe Workspace and tables behind Ex.
type AdaptiveSolver struct {
	// Ex supplies the tuned tables and workspace.
	Ex *Executor
	// Stagnation is the per-iteration residual-reduction factor below which
	// convergence counts as stagnating (e.g. 2 means "less than 2×
	// improvement per step"). Zero defaults to 2.
	Stagnation float64
	// MaxIters bounds the iteration count. Zero defaults to 100.
	MaxIters int
}

// Solve reduces the residual of T·x = b by at least the given factor,
// starting from sub-accuracy index startSub and escalating on stagnation.
// It panics if reduction < 1 or startSub is out of range.
func (a *AdaptiveSolver) Solve(x, b *grid.Grid, reduction float64, startSub int) AdaptiveResult {
	if reduction < 1 {
		panic(fmt.Sprintf("mg: adaptive reduction %v < 1", reduction))
	}
	numAcc := len(a.Ex.V.Acc)
	if startSub < 0 || startSub >= numAcc {
		panic(fmt.Sprintf("mg: adaptive start sub %d out of range [0,%d)", startSub, numAcc))
	}
	stag := a.Stagnation
	if stag <= 0 {
		stag = 2
	}
	maxIters := a.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}
	h := 1.0 / float64(x.N()-1)
	pool := a.Ex.WS.Pool
	op := a.Ex.WS.opAt(x.N())
	r0 := stencil.OpResidualNorm(op, pool, x, b, h)
	if r0 == 0 {
		return AdaptiveResult{Reduction: math.Inf(1), FinalSub: startSub}
	}
	res := AdaptiveResult{FinalSub: startSub}
	prev := r0
	for res.Iters < maxIters {
		a.Ex.Recurse(x, b, res.FinalSub)
		cur := stencil.OpResidualNorm(op, pool, x, b, h)
		res.Iters++
		if nonFinite(cur) || cur > divergenceGrowth*r0 {
			abortDiverged("adaptive residual %g after %d iterations (started at %g)", cur, res.Iters, r0)
		}
		if cur <= r0/reduction || cur == 0 {
			res.Reduction = safeRatio(r0, cur)
			return res
		}
		// Stagnating? Move to a tuned sub-algorithm of higher accuracy, as
		// the paper's dynamic-tuning sketch suggests.
		if prev/cur < stag && res.FinalSub < numAcc-1 {
			res.FinalSub++
			res.Escalations++
		}
		prev = cur
	}
	res.Reduction = safeRatio(r0, stencil.OpResidualNorm(op, pool, x, b, h))
	return res
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}
