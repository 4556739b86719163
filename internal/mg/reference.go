package mg

import "pbmg/internal/grid"

// This file implements the paper's algorithmically static baselines:
// MULTIGRID-V-SIMPLE (§2.1), the reference iterated V-cycle, and the
// reference full multigrid algorithm (§4.2.2), plus the iterate-until-
// accuracy driver shared by all of them.

// RefVCycle performs one standard V-cycle on x in place: one pre-smoothing
// sweep, coarse-grid correction by recursion down to the N=3 direct base
// case, and one post-smoothing sweep — exactly MULTIGRID-V-SIMPLE.
func (ws *Workspace) RefVCycle(x, b *grid.Grid, rec Recorder) {
	if x.N() == 3 {
		ws.SolveDirect(x, b, rec)
		return
	}
	ws.RecurseWith(x, b, rec, func(cx, cb *grid.Grid) {
		ws.RefVCycle(cx, cb, rec)
	})
}

// RefFullMG performs one standard full-multigrid pass on x in place: an
// estimation phase that recursively solves the restricted residual problem
// (Figure 3), followed by one V-cycle at this resolution.
func (ws *Workspace) RefFullMG(x, b *grid.Grid, rec Recorder) {
	if x.N() == 3 {
		ws.SolveDirect(x, b, rec)
		return
	}
	ws.estimate(x, b, rec, func(cx, cb *grid.Grid) { ws.RefFullMG(cx, cb, rec) })
	ws.RefVCycle(x, b, rec)
}

// IterateUntil repeatedly calls step until accuracy() reaches target or
// maxIters steps have run. It returns the number of steps taken and the
// accuracy achieved. accuracy is consulted after every step.
func IterateUntil(target float64, maxIters int, step func(), accuracy func() float64) (iters int, achieved float64) {
	for iters = 0; iters < maxIters; iters++ {
		step()
		achieved = accuracy()
		if achieved >= target {
			return iters + 1, achieved
		}
	}
	return iters, achieved
}

// SolveRefV iterates reference V-cycles until the accuracy target (measured
// by accuracy()) is met, up to maxIters cycles.
func (ws *Workspace) SolveRefV(x, b *grid.Grid, target float64, maxIters int, accuracy func() float64, rec Recorder) (int, float64) {
	return IterateUntil(target, maxIters, func() { ws.RefVCycle(x, b, rec) }, accuracy)
}

// SolveRefFullMG runs one full-multigrid pass and then iterates V-cycles
// until the accuracy target is met — the paper's second reference algorithm.
// The returned iteration count includes the initial FMG pass.
func (ws *Workspace) SolveRefFullMG(x, b *grid.Grid, target float64, maxIters int, accuracy func() float64, rec Recorder) (int, float64) {
	ws.RefFullMG(x, b, rec)
	if a := accuracy(); a >= target {
		return 1, a
	}
	iters, a := IterateUntil(target, maxIters-1, func() { ws.RefVCycle(x, b, rec) }, accuracy)
	return iters + 1, a
}
