package mg

import (
	"context"
	"fmt"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// Executor runs the tuned algorithm families against a workspace. V must be
// set for SolveV; both V and F must be set for SolveFull (the full-multigrid
// solve phase reuses tuned RECURSE steps from the V table, as in §2.4).
// Rec, if non-nil, receives every operation event.
//
// An Executor is a cheap value: constructing one per solve costs nothing
// beyond the struct itself, and concurrent solves against a shared
// Workspace should each use their own Executor so Rec stays private. The
// tables (V, F) and the Workspace may be shared freely across goroutines.
type Executor struct {
	WS  *Workspace
	V   *VTable
	F   *FTable
	Rec Recorder

	// Ctx, when non-nil, is polled at cycle and level boundaries: once it
	// is done the solve aborts with an error wrapping ErrCancelled
	// (delivered through Catch), returning every pooled scratch buffer on
	// the way out. Nil (the default) costs nothing.
	Ctx context.Context
}

// SolveV runs the tuned MULTIGRID-Vᵢ algorithm for accuracy index accIdx on
// x in place. The level is inferred from x's size. Every cell runs in
// float64 storage; a saved plan's precision directive is ignored.
func (e *Executor) SolveV(x, b *grid.Grid, accIdx int) {
	level := grid.Level(x.N())
	if level < 1 {
		panic(fmt.Sprintf("mg: grid size %d is not 2^k+1", x.N()))
	}
	if level == 1 {
		e.WS.SolveDirect(x, b, e.Rec)
		return
	}
	e.solvePlan(x, b, e.V.Plan(level, accIdx))
}

// solvePlan executes a cell's choice.
func (e *Executor) solvePlan(x, b *grid.Grid, plan Plan) {
	switch plan.Choice {
	case ChoiceDirect:
		e.WS.SolveDirect(x, b, e.Rec)
	case ChoiceSOR:
		e.WS.SOR(x, b, stencil.OmegaOpt(x.N()), plan.Iters, e.Rec)
	case ChoiceRecurse:
		for it := 0; it < plan.Iters; it++ {
			e.checkpoint()
			e.Recurse(x, b, plan.Sub)
		}
	case ChoiceVCycle:
		for it := 0; it < plan.Iters; it++ {
			e.checkpoint()
			e.WS.RefVCycle(x, b, e.Rec)
		}
	default:
		panic(fmt.Sprintf("mg: invalid plan choice %v", plan.Choice))
	}
}

// Recurse performs one RECURSE_j step (§2.3) on x in place: one
// pre-smoothing sweep, residual restriction, a tuned MULTIGRID-V_j solve of
// the coarse error equation, correction, and one post-smoothing sweep.
func (e *Executor) Recurse(x, b *grid.Grid, subIdx int) {
	// The between-levels checkpoint: deep cycles re-enter here once per
	// level, so a cancelled context stops the descent without waiting for
	// the full cycle to come back up.
	e.checkpoint()
	e.WS.RecurseWith(x, b, e.Rec, func(cx, cb *grid.Grid) {
		e.SolveV(cx, cb, subIdx)
	})
}

// SolveFull runs the tuned FULL-MULTIGRIDᵢ algorithm for accuracy index
// accIdx on x in place.
func (e *Executor) SolveFull(x, b *grid.Grid, accIdx int) {
	e.checkpoint()
	level := grid.Level(x.N())
	if level < 1 {
		panic(fmt.Sprintf("mg: grid size %d is not 2^k+1", x.N()))
	}
	if level == 1 {
		e.WS.SolveDirect(x, b, e.Rec)
		return
	}
	plan := e.F.Plan(level, accIdx)
	switch plan.Choice {
	case FullDirect:
		e.WS.SolveDirect(x, b, e.Rec)
		return
	case FullV:
		e.solvePlan(x, b, e.V.Plan(level, accIdx))
	case FullEstimate:
		e.Estimate(x, b, plan.EstAcc)
		// The solve phase is a V cell's choice run Iters times; a zero count
		// leaves no 0-sweep EvIterSolve in traces and shape logs.
		if plan.Iters > 0 {
			e.solvePlan(x, b, Plan{Choice: plan.Solve, Sub: plan.SolveSub, Iters: plan.Iters})
		}
	default:
		panic(fmt.Sprintf("mg: invalid full plan choice %v", plan.Choice))
	}
}

// Estimate performs the ESTIMATE_j phase (§2.4) on x in place: restrict the
// residual problem to half resolution, solve it with the tuned
// FULL-MULTIGRID_j, and apply the interpolated correction to x.
func (e *Executor) Estimate(x, b *grid.Grid, estAcc int) {
	e.WS.estimate(x, b, e.Rec, func(cx, cb *grid.Grid) { e.SolveFull(cx, cb, estAcc) })
}
