// Fused V-cycle upstroke kernels (2D). The unfused upstroke runs four
// full-grid passes after the coarse solve: interpolate the coarse correction
// into a scratch grid, add the scratch grid to x, then the post-smooth's two
// half-sweeps. This file folds them into three row stages:
//
//   - correct: evaluate the row's interpolated correction into a
//     cache-resident buffer (transfer.InterpRow, the same arithmetic
//     Interpolate runs) and add it to the row in place — the scratch grid's
//     full-grid write and re-read disappear, and the interpolation is
//     computed exactly once per row.
//   - relax red: a red point's Gauss-Seidel average reads only black
//     neighbours and its own corrected value, so relaxing red once rows
//     i−1 … i+1 are corrected reads exactly the state the unfused
//     InterpolateAdd + red half-sweep would.
//   - relax black, completing the post-smoothing sweep.
//
// Upstroke runs all three in one traversal — serially as the row wavefront
// correct(i) → red(i−1) → black(i−2) (see fused.go for why one row of lag is
// exact), with a pool as three barrier-separated passes — and the iterate is
// bit-identical to the unfused passes either way.
//
// InterpolateCorrectSmooth stops after the red stage, so that the black
// half can instead be FinishSmoothWithNorm: the black half-sweep with the
// delta-derived norm reduction extracted from SweepWithNorm. Followed by
// FinishSmooth it equals Upstroke.
package stencil

import (
	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/transfer"
)

// OpUpstroke is the whole V-cycle upstroke in one traversal: it adds the
// d-linear interpolation of cx to x's interior and runs one full red-black
// post-smoothing sweep, leaving x bit-identical to transfer.InterpolateAdd
// followed by SORSweepRB (and to OpInterpolateCorrectSmooth followed by
// OpFinishSmooth). scratch is a grid of x's size whose contents are
// clobbered: its rows serve as the interpolation buffers, so the call
// allocates nothing. cx must not alias x or b.
func OpUpstroke[T grid.Float](op *Operator, pool *sched.Pool, x, b, cx, scratch *grid.G[T], h, omega T) {
	if op.family == FamilyPoisson3D {
		OpInterpolateCorrectSmooth(op, pool, x, b, cx, h, omega)
		OpFinishSmooth(op, pool, x, b, h, omega)
		return
	}
	k := bindRows(op, x, b, nil, h, omega)
	k.correctSmooth(pool, cx, scratch, true)
}

// InterpolateCorrectSmooth applies the coarse-grid correction (the d-linear
// interpolation of cx added to x's interior) and runs the post-smooth's red
// half-sweep in the same traversal. Calling FinishSmooth afterwards yields an
// iterate bit-identical to transfer.InterpolateAdd followed by SORSweepRB;
// calling FinishSmoothWithNorm additionally returns the post-sweep residual
// norm exactly as SweepWithNorm computes it. cx must not alias x or b.
func (op *Operator) InterpolateCorrectSmooth(pool *sched.Pool, x, b, cx *grid.Grid, h, omega float64) {
	OpInterpolateCorrectSmooth(op, pool, x, b, cx, h, omega)
}

// OpInterpolateCorrectSmooth is the precision-generic edition of
// Operator.InterpolateCorrectSmooth.
func OpInterpolateCorrectSmooth[T grid.Float](op *Operator, pool *sched.Pool, x, b, cx *grid.G[T], h, omega T) {
	if op.family == FamilyPoisson3D {
		interpCorrectPlanes(pool, x, cx, func(i int) {
			redRelaxPlane3(x, b, i, h*h, omega)
		})
		return
	}
	k := bindRows(op, x, b, nil, h, omega)
	k.correctSmooth(pool, cx, nil, false)
}

// FinishSmooth runs the black half-sweep completing a post-smoothing pass
// started by InterpolateCorrectSmooth. The pair is bit-identical to the
// unfused correction plus one SORSweepRB.
func (op *Operator) FinishSmooth(pool *sched.Pool, x, b *grid.Grid, h, omega float64) {
	OpFinishSmooth(op, pool, x, b, h, omega)
}

// OpFinishSmooth is the precision-generic edition of Operator.FinishSmooth.
func OpFinishSmooth[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T) {
	if op.family == FamilyPoisson3D {
		blackHalfSweep3(pool, x, b, h*h, omega)
		return
	}
	k := bindRows(op, x, b, nil, h, omega)
	k.halfSweep(pool, 1)
}

// FinishSmoothWithNorm is FinishSmooth fused with the convergence probe: it
// completes the sweep and returns ‖b − T·x‖₂ over interior points, computed
// by the same delta-emission and deterministic per-row reduction as
// SweepWithNorm — InterpolateCorrectSmooth followed by FinishSmoothWithNorm
// returns the same bits as InterpolateAdd followed by SweepWithNorm.
func (op *Operator) FinishSmoothWithNorm(pool *sched.Pool, x, b *grid.Grid, h, omega float64) float64 {
	return OpFinishSmoothWithNorm(op, pool, x, b, h, omega)
}

// OpFinishSmoothWithNorm is the precision-generic edition of
// Operator.FinishSmoothWithNorm. The returned norm is accumulated in float64
// regardless of T.
func OpFinishSmoothWithNorm[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T) float64 {
	h2 := h * h
	inv := 1 / h2
	switch op.family {
	case FamilyPoisson:
		return finishSweepNorm(pool, x, b, h2, inv, omega, 4*(1-omega)*inv)
	case FamilyPoisson3D:
		return finishSweepNorm3(pool, x, b, h2, inv, omega, 6*(1-omega)*inv)
	case FamilyAnisotropic:
		return finishSweepNormConst(pool, x, b, h2, inv, omega, T(op.eps), 1)
	default:
		op.checkSize(x.N())
		return finishSweepNormVar(pool, x, b, h2, inv, omega, opCoef[T](op))
	}
}

// correct adds row i of the bilinear interpolation of cx to row i of x,
// through buf.
func (k *rowOps[T]) correct(buf []T, cx *grid.G[T], i int) {
	transfer.InterpRow(buf, cx, i)
	addRow(k.x.Row(i), buf)
}

// rowBuf returns an n-long interpolation buffer: row i of scratch, or a fresh
// slice for the entry points that have no scratch grid to offer. Kept out of
// line so that allocation stays a single site in the escape gate's ledger.
//
//go:noinline
func rowBuf[T grid.Float](scratch *grid.G[T], i, n int) []T {
	if scratch == nil {
		return make([]T, n) //mglint:allow hotalloc — InterpolateCorrectSmooth has no scratch parameter: one correction row buffer per call (per chunk when pooled)
	}
	return scratch.Row(i)
}

// correctSmooth applies the coarse-grid correction and relaxes the red
// points, then with finish also the black points, of every interior row.
func (k *rowOps[T]) correctSmooth(pool *sched.Pool, cx, scratch *grid.G[T], finish bool) {
	n := k.n
	if pool != nil {
		correctPass(pool, *k, cx, scratch)
		k.halfSweep(pool, 0)
		if finish {
			k.halfSweep(pool, 1)
		}
		return
	}
	buf := rowBuf(scratch, 0, n)
	for i := 1; i <= n; i++ {
		if i < n-1 {
			k.correct(buf, cx, i)
		}
		if i > 1 && i < n {
			k.relax(i-1, 0)
		}
		if finish && i > 2 {
			k.relax(i-2, 1)
		}
	}
}

// correctPass is the pooled correction stage; each chunk buffers through its
// own first row of scratch (by-value receiver: see halfSweepPass).
func correctPass[T grid.Float](pool *sched.Pool, k rowOps[T], cx, scratch *grid.G[T]) {
	parallelRows(pool, k.n, func(lo, hi int) {
		buf := rowBuf(scratch, lo, k.n)
		for i := lo; i < hi; i++ {
			k.correct(buf, cx, i)
		}
	})
}
