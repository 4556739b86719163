// Fused V-cycle upstroke kernels, 2D and 3D. The unfused upstroke runs four
// full-grid passes after the coarse solve: interpolate the coarse correction
// into a scratch grid, add the scratch grid to x, then the post-smooth's two
// half-sweeps. This file folds them into three stages over units (rows in
// 2D, planes in 3D — see fused.go):
//
//   - correct: add each unit's interpolated correction straight into x
//     (transfer.InterpolateAddUnit, whose row kernels evaluate the
//     arithmetic Interpolate runs) — no scratch grid is written or re-read,
//     and the interpolation is computed exactly once per point.
//   - relax red: a red point's Gauss-Seidel average reads only black
//     neighbours and its own corrected value, so relaxing red once units
//     i−1 … i+1 are corrected reads exactly the state the unfused
//     interpolate + add + red half-sweep would.
//   - relax black, completing the post-smoothing sweep.
//
// Upstroke runs all three in one traversal — serially as the wavefront
// correct(i) → red(i−1) → black(i−2) (see fused.go for why one unit of lag
// is exact), with a pool as three barrier-separated passes — and the iterate
// is bit-identical to the unfused passes either way.
//
// OpInterpolateCorrectSmooth and OpFinishSmooth are the same stages as two
// calls, for the microbenchmarks and as the oracle pair of OpUpstroke.
package stencil

import (
	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/transfer"
)

// OpUpstroke is the whole V-cycle upstroke in one traversal: it adds the
// d-linear interpolation of cx to x's interior and runs one full red-black
// post-smoothing sweep, leaving x bit-identical to transfer.InterpolateAdd
// and OpSORSweepRB (and to OpInterpolateCorrectSmooth followed by
// OpFinishSmooth). It allocates nothing. cx must not alias x or b.
func OpUpstroke[T grid.Float](op *Operator, pool *sched.Pool, x, b, cx *grid.G[T], h, omega T) {
	k := bindRows(op, pool, x, b, nil, h, omega)
	k.correctSmooth(cx, true)
}

// OpInterpolateCorrectSmooth applies the coarse-grid correction (the
// d-linear interpolation of cx added to x's interior) and runs the
// post-smooth's red half-sweep in the same traversal. Calling OpFinishSmooth
// afterwards yields an iterate bit-identical to transfer.InterpolateAdd and
// OpSORSweepRB. cx must not alias x or b.
func OpInterpolateCorrectSmooth[T grid.Float](op *Operator, pool *sched.Pool, x, b, cx *grid.G[T], h, omega T) {
	k := bindRows(op, pool, x, b, nil, h, omega)
	k.correctSmooth(cx, false)
}

// OpFinishSmooth runs the black half-sweep completing a post-smoothing pass
// started by OpInterpolateCorrectSmooth. The pair is bit-identical to the
// unfused correction plus one OpSORSweepRB.
func OpFinishSmooth[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T) {
	k := bindRows(op, pool, x, b, nil, h, omega)
	k.halfSweep(1)
}

// correctSmooth applies the coarse-grid correction and relaxes the red
// points, then with finish also the black points, of every interior unit.
func (k *rowOps[T]) correctSmooth(cx *grid.G[T], finish bool) {
	n := k.n
	if k.pool != nil {
		correctPass(*k, cx)
		k.halfSweep(0)
		if finish {
			k.halfSweep(1)
		}
		return
	}
	for i := 1; i <= n; i++ {
		if i < n-1 {
			transfer.InterpolateAddUnit(k.x, cx, i)
		}
		if i > 1 && i < n {
			k.relax(i-1, 0)
		}
		if finish && i > 2 {
			k.relax(i-2, 1)
		}
	}
}

// correctPass is the pooled correction stage (by-value receiver: see
// halfSweepPass).
func correctPass[T grid.Float](k rowOps[T], cx *grid.G[T]) {
	k.forUnits(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			transfer.InterpolateAddUnit(k.x, cx, i)
		}
	})
}
