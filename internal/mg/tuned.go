package mg

import (
	"context"
	"fmt"
	"math"

	"pbmg/internal/faultinject"
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

	// ForceF64 ignores the plans' precision directives and runs every cell
	// in float64 storage — the escalation retry after an f32/mixed cell
	// diverged (see ErrDiverged). The cycle shapes and iteration counts
	// stay exactly as tuned; only the storage precision is pinned.
	ForceF64 bool
}

// SolveV runs the tuned MULTIGRID-Vᵢ algorithm for accuracy index accIdx on
// x in place. The level is inferred from x's size. A cell whose plan carries
// a precision directive is honored here: PrecF32 converts the state to
// float32 and runs the whole sub-solve at that precision; PrecMixed runs the
// f64 iterative-refinement loop around one-step f32 cycles.
func (e *Executor) SolveV(x, b *grid.Grid, accIdx int) {
	solveVOf(e, x, b, accIdx)
}

// solveVOf dispatches one tuned cell at the current storage precision.
// Precision directives are only consulted while solving in float64 — once a
// subtree has dropped to f32, nested directives are no-ops (the state is
// already converted, and refinement needs an f64 iterate to correct).
func solveVOf[T grid.Float](e *Executor, x, b *grid.G[T], accIdx int) {
	level := grid.Level(x.N())
	if level < 1 {
		panic(fmt.Sprintf("mg: grid size %d is not 2^k+1", x.N()))
	}
	if level == 1 {
		solveDirectOf(e.WS, x, b, e.Rec)
		return
	}
	plan := e.V.Plan(level, accIdx)
	if grid.Bits[T]() == 64 && !e.ForceF64 {
		switch plan.Precision {
		case PrecF32:
			x64 := any(x).(*grid.Grid)
			b64 := any(b).(*grid.Grid)
			e.solveVF32(x64, b64, plan)
			return
		case PrecMixed:
			x64 := any(x).(*grid.Grid)
			b64 := any(b).(*grid.Grid)
			e.solveVMixed(x64, b64, plan)
			return
		}
	}
	solveVPlan(e, x, b, plan)
}

// solveVPlan executes a cell's choice at precision T.
func solveVPlan[T grid.Float](e *Executor, x, b *grid.G[T], plan Plan) {
	switch plan.Choice {
	case ChoiceDirect:
		solveDirectOf(e.WS, x, b, e.Rec)
	case ChoiceSOR:
		sorOf(e.WS, x, b, stencil.OmegaOpt(x.N()), plan.Iters, e.Rec)
	case ChoiceRecurse:
		for it := 0; it < plan.Iters; it++ {
			e.checkpoint()
			recurseOf(e, x, b, plan.Sub)
		}
	case ChoiceVCycle:
		for it := 0; it < plan.Iters; it++ {
			e.checkpoint()
			refVCycleOf(e.WS, x, b, e.Rec)
		}
	default:
		panic(fmt.Sprintf("mg: invalid plan choice %v", plan.Choice))
	}
}

// solveVF32 runs a PrecF32 cell: round the state to float32, execute the
// plan's choice entirely in f32 storage, and write the interior back —
// the caller's f64 Dirichlet boundary is never rounded. The f32 scratch pair
// comes from the workspace arena, so steady-state solves stay
// allocation-free.
func (e *Executor) solveVF32(x, b *grid.Grid, plan Plan) {
	bufs := checkoutOf[float32](e.WS, x.N())
	defer releaseOf(e.WS, bufs)
	x32, b32 := bufs.r, bufs.scratch
	grid.ConvertInto(x32, x)
	grid.ConvertInto(b32, b)
	if faultinject.Enabled && faultinject.PointLevel("mg.f32.nan", grid.Level(x.N())) {
		x32.Data()[len(x32.Data())/2] = float32(math.NaN())
	}
	solveVPlan(e, x32, b32, plan)
	// The f32 cycle has no residual norms to watch, so divergence shows up
	// as a non-finite iterate: inputs past float32's dynamic range round to
	// ±Inf on entry and poison the sweeps. One read pass over the f32 state
	// catches it before the garbage is written back into the caller's f64
	// grid, and the abort's unwind returns the scratch pair above.
	if grid.HasNonFinite(x32) {
		abortDiverged("f32 plan at n=%d produced a non-finite iterate", x.N())
	}
	grid.ConvertInteriorInto(x, x32)
}

// solveVMixed runs a PrecMixed cell: float64 iterative refinement with the
// f32 cycle as preconditioner. Each of the plan's Iters iterations computes
// the double-precision defect r = b − T·x, solves the error equation
// T·e = r in float32 with ONE step of the plan's choice from a zero guess
// (the error has zero Dirichlet boundary), and corrects x += e in float64.
// The f32 cycle's rounding limits only the per-iteration contraction, not
// the attainable accuracy — that is set by the f64 residual, which is what
// lets acc=1e9 cells ride f32 bandwidth.
func (e *Executor) solveVMixed(x, b *grid.Grid, plan Plan) {
	n := x.N()
	h := 1.0 / float64(n-1)
	lvl := grid.Level(n)
	op := e.WS.opAt(n)
	f64 := checkoutOf[float64](e.WS, n)
	defer releaseOf(e.WS, f64)
	f32 := checkoutOf[float32](e.WS, n)
	defer releaseOf(e.WS, f32)
	r := f64.r
	r.ZeroBoundary()
	e32, r32 := f32.r, f32.scratch
	step := plan
	step.Iters = 1
	var r0 float64
	for it := 0; it < plan.Iters; it++ {
		e.checkpoint()
		stencil.OpResidual(op, e.WS.Pool, r, x, b, h)
		recordOf[float64](e.Rec, EvResidual, lvl, 1)
		// The refinement loop already materializes the f64 defect each
		// iteration, so its norm is the natural divergence probe: NaN/Inf
		// means the f32 step poisoned the iterate, and growth past
		// divergenceGrowth× the starting norm means refinement is expanding
		// instead of contracting.
		rn := grid.L2Interior(r)
		if nonFinite(rn) || (it > 0 && rn > divergenceGrowth*r0) {
			abortDiverged("mixed refinement residual %g after %d iterations (started at %g)", rn, it, r0)
		}
		if it == 0 {
			r0 = rn
		}
		grid.ConvertInto(r32, r)
		e32.Zero()
		solveVPlan(e, e32, r32, step)
		grid.AddInteriorOf(x, e32)
	}
}

// SolvePlanF32 executes plan's choice on pre-converted float32 state. It is
// the body of a PrecF32 cell without the entry/exit conversions, exported so
// the tuner can measure f32 candidates the way a deployed cell amortizes
// them: convert once, iterate many.
func (e *Executor) SolvePlanF32(x, b *grid.Grid32, plan Plan) { solveVPlan(e, x, b, plan) }

// RefineStep runs one float64-refinement iteration of plan — the PrecMixed
// loop body (f64 defect, one f32 step of the plan's choice, f64 correction)
// — exported as the tuner's mixed-candidate measurement primitive.
func (e *Executor) RefineStep(x, b *grid.Grid, plan Plan) {
	p := plan
	p.Iters = 1
	e.solveVMixed(x, b, p)
}

// Recurse performs one RECURSE_j step (§2.3) on x in place: one
// pre-smoothing sweep, residual restriction, a tuned MULTIGRID-V_j solve of
// the coarse error equation, correction, and one post-smoothing sweep.
func (e *Executor) Recurse(x, b *grid.Grid, subIdx int) {
	recurseOf(e, x, b, subIdx)
}

// recurseOf is one RECURSE_j step at precision T; the coarse sub-solve
// re-enters the tuned dispatch, so in float64 a coarser cell's precision
// directive is honored mid-cycle.
func recurseOf[T grid.Float](e *Executor, x, b *grid.G[T], subIdx int) {
	// The between-levels checkpoint: deep cycles re-enter here once per
	// level, so a cancelled context stops the descent without waiting for
	// the full cycle to come back up.
	e.checkpoint()
	recurseWithOf(e.WS, x, b, e.Rec, func(cx, cb *grid.G[T]) {
		solveVOf(e, cx, cb, subIdx)
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
	case FullEstimate:
		e.Estimate(x, b, plan.EstAcc)
		// The solve phase is a V cell's choice run Iters times; a zero count
		// leaves no 0-sweep EvIterSolve in traces and shape logs.
		if plan.Iters > 0 {
			solveVPlan(e, x, b, Plan{Choice: plan.Solve, Sub: plan.SolveSub, Iters: plan.Iters})
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
