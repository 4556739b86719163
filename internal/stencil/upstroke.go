// Fused V-cycle upstroke kernels, 2D and 3D. The unfused upstroke runs four
// full-grid passes after the coarse solve: interpolate the coarse correction
// into a scratch grid, add the scratch grid to x, then the post-smooth's two
// half-sweeps. This file folds them into three stages over units (rows in
// 2D, planes in 3D — see fused.go):
//
//   - correct: evaluate each row's interpolated correction into a
//     cache-resident buffer (transfer.InterpRow/InterpRow3, the same
//     arithmetic Interpolate runs) and add it to the row in place — the
//     scratch grid's full-grid write and re-read disappear, and the
//     interpolation is computed exactly once per row.
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
// OpFinishSmooth). scratch is a grid of x's size whose contents are
// clobbered: its rows serve as the interpolation buffers, so the call
// allocates nothing. cx must not alias x or b.
func OpUpstroke[T grid.Float](op *Operator, pool *sched.Pool, x, b, cx, scratch *grid.G[T], h, omega T) {
	k := bindRows(op, pool, x, b, nil, h, omega)
	k.correctSmooth(cx, scratch, true)
}

// OpInterpolateCorrectSmooth applies the coarse-grid correction (the
// d-linear interpolation of cx added to x's interior) and runs the
// post-smooth's red half-sweep in the same traversal. Calling OpFinishSmooth
// afterwards yields an iterate bit-identical to transfer.InterpolateAdd and
// OpSORSweepRB. cx must not alias x or b.
func OpInterpolateCorrectSmooth[T grid.Float](op *Operator, pool *sched.Pool, x, b, cx *grid.G[T], h, omega T) {
	k := bindRows(op, pool, x, b, nil, h, omega)
	k.correctSmooth(cx, nil, false)
}

// OpFinishSmooth runs the black half-sweep completing a post-smoothing pass
// started by OpInterpolateCorrectSmooth. The pair is bit-identical to the
// unfused correction plus one OpSORSweepRB.
func OpFinishSmooth[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T) {
	k := bindRows(op, pool, x, b, nil, h, omega)
	k.halfSweep(1)
}

// correct adds unit i of the d-linear interpolation of cx to unit i of x, a
// row at a time through buf (and tmp, which only the trilinear rule needs).
func (k *rowOps[T]) correct(buf, tmp []T, cx *grid.G[T], i int) {
	if k.dim3() {
		n := k.n
		x := k.x.Plane(i)
		for j := 1; j < n-1; j++ {
			transfer.InterpRow3(buf, tmp, cx, i, j)
			addRow(x[j*n:(j+1)*n], buf)
		}
		return
	}
	transfer.InterpRow(buf, cx, i)
	addRow(k.x.Row(i), buf)
}

// rowBufs returns the n-long interpolation buffers of one chunk of correction
// work starting at unit i — buf, and in 3D also tmp, which only the trilinear
// rule needs: the first rows of scratch's unit i, or a fresh slice for the
// one entry point that has no scratch grid to offer. Kept out of line so that
// allocation stays a single site in the escape gate's ledger.
//
//go:noinline
func (k *rowOps[T]) rowBufs(scratch *grid.G[T], i int) (buf, tmp []T) {
	switch {
	case scratch == nil:
		n := k.n
		if k.dim3() {
			n *= 2
		}
		buf = make([]T, n) // OpInterpolateCorrectSmooth has no scratch parameter; only bench/ and test oracles call it, every cycle goes through OpUpstroke
		return buf[:k.n], buf[k.n:]
	case k.dim3():
		return scratch.Row3(i, 0), scratch.Row3(i, 1)
	}
	return scratch.Row(i), nil
}

// correctSmooth applies the coarse-grid correction and relaxes the red
// points, then with finish also the black points, of every interior unit.
func (k *rowOps[T]) correctSmooth(cx, scratch *grid.G[T], finish bool) {
	n := k.n
	if k.pool != nil {
		correctPass(*k, cx, scratch)
		k.halfSweep(0)
		if finish {
			k.halfSweep(1)
		}
		return
	}
	buf, tmp := k.rowBufs(scratch, 0)
	for i := 1; i <= n; i++ {
		if i < n-1 {
			k.correct(buf, tmp, cx, i)
		}
		if i > 1 && i < n {
			k.relax(i-1, 0)
		}
		if finish && i > 2 {
			k.relax(i-2, 1)
		}
	}
}

// correctPass is the pooled correction stage; each chunk buffers through the
// first rows of its own first unit of scratch (by-value receiver: see
// halfSweepPass).
func correctPass[T grid.Float](k rowOps[T], cx, scratch *grid.G[T]) {
	k.forUnits(func(lo, hi int) {
		buf, tmp := k.rowBufs(scratch, lo)
		for i := lo; i < hi; i++ {
			k.correct(buf, tmp, cx, i)
		}
	})
}
