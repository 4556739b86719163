// Package transfer implements the inter-grid operators used by multigrid:
// full-weighting restriction (fine → coarse) and bilinear (2D) / trilinear
// (3D) interpolation (coarse → fine). Grids move between sizes N = 2^k + 1
// and N' = 2^(k−1)+1; coarse point (I, J[, K]) sits on top of fine point
// (2I, 2J[, 2K]). The public entry points dispatch on Grid.Dim, so cycle
// code is dimension-generic; 2D-only operators (RestrictCoef) reject 3D
// grids with an explicit error instead of silently mis-indexing.
//
// Both operators treat boundaries as homogeneous Dirichlet: multigrid
// applies them to residual/correction grids, whose boundary error is zero.
// Full weighting is (1/2^d)·Pᵀ where P is the d-linear interpolation, the
// classic variationally-consistent pairing in both dimensions.
package transfer

import (
	"fmt"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// Parallelization gates on total points of work (sched.Pool.Splits),
// the same threshold the stencil kernels use in both dimensions, so a
// transfer and the residual pass feeding it always make the same
// serial-vs-parallel decision.

func checkLevels[T grid.Float](coarse, fine *grid.G[T], what string) {
	nc, nf := coarse.N(), fine.N()
	if nf != 2*nc-1 {
		panic(fmt.Sprintf("transfer: %s size mismatch fine=%d coarse=%d", what, nf, nc))
	}
	if coarse.Dim() != fine.Dim() {
		panic(fmt.Sprintf("transfer: %s dimension mismatch fine=%dD coarse=%dD", what, fine.Dim(), coarse.Dim()))
	}
}

// Restrict applies full-weighting restriction of the fine grid into coarse
// for interior coarse points; the coarse boundary is zeroed. Sizes must be
// consecutive multigrid levels and dimensions must match. In 2D:
//
//	c[I,J] = (4·f[2I,2J] + 2·(edge neighbours) + corner neighbours) / 16
//
// In 3D the weights are the tensor-product extension (8 center, 4 face,
// 2 edge, 1 corner, /64).
func Restrict[T grid.Float](pool *sched.Pool, coarse, fine *grid.G[T]) {
	checkLevels(coarse, fine, "Restrict")
	if fine.Dim() == 3 {
		restrict3(pool, coarse, fine)
		return
	}
	nc := coarse.N()
	coarse.ZeroBoundary()
	if pool == nil {
		restrictRows(coarse, fine, 1, nc-1)
		return
	}
	pool.ParallelForPoints(1, nc-1, 2*fine.N(), func(lo, hi int) { restrictRows(coarse, fine, lo, hi) })
}

// restrictRows computes coarse rows lo … hi−1 of the 2D restriction.
func restrictRows[T grid.Float](coarse, fine *grid.G[T], lo, hi int) {
	for ci := lo; ci < hi; ci++ {
		RestrictRow(coarse.Row(ci), fine.Row(2*ci-1), fine.Row(2*ci), fine.Row(2*ci+1))
	}
}

// restrict3 is 3D full weighting: the tensor product of the 1D stencil
// [1/4, 1/2, 1/4], giving weight 8 to the coincident fine point, 4 to its 6
// face neighbours, 2 to its 12 edge neighbours, and 1 to its 8 corner
// neighbours, normalized by 64. Parallel chunks own disjoint coarse planes.
func restrict3[T grid.Float](pool *sched.Pool, coarse, fine *grid.G[T]) {
	nc := coarse.N()
	coarse.ZeroBoundary()
	body := func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			fi := 2 * ci
			for cj := 1; cj < nc-1; cj++ {
				fj := 2 * cj
				cr := coarse.Row3(ci, cj)
				// The nine fine rows surrounding (fi, fj): plane offset di,
				// row offset dj.
				var rows [3][3][]T
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						rows[di+1][dj+1] = fine.Row3(fi+di, fj+dj)
					}
				}
				for ck := 1; ck < nc-1; ck++ {
					fk := 2 * ck
					var sum T
					for di := 0; di < 3; di++ {
						for dj := 0; dj < 3; dj++ {
							r := rows[di][dj]
							// 1D weights: 2 at offset 0, 1 at ±1; the product
							// of the three axis weights is the 3D weight.
							w := T(weight1D[di] * weight1D[dj])
							sum += w * (2*r[fk] + r[fk-1] + r[fk+1])
						}
					}
					cr[ck] = sum * (1.0 / 64.0)
				}
			}
		}
	}
	if pool == nil {
		body(1, nc-1)
		return
	}
	pool.ParallelForPoints(1, nc-1, 2*fine.N()*fine.N(), body)
}

// weight1D is the unnormalized 1D full-weighting stencil [1, 2, 1] indexed
// by offset+1.
var weight1D = [3]int{1, 2, 1}

// Window is the scratch of one chunk of the separable 27-point restriction:
// the full weighting [1, 2, 1]³/64 applied as a k-compression of fine rows,
// then a j-compression, then an i-combination of the three pre-weighted
// nc×nc planes around a coarse plane — roughly 3× fewer reads per coarse
// point than the direct 27-point Restrict, which it matches to
// floating-point association. The caller feeds fine planes in index order
// through Preweight and draws coarse plane ci with Restrict once planes
// 2ci−1 … 2ci+1 are in; plane f lives in slot f mod 3, so nothing moves as
// the window rolls. A chunk of coarse planes pre-weights its own first fine
// plane 2lo−1 again instead of sharing it, so the output does not depend on
// the chunking. The storage is the caller's (NewWindow): the restriction
// allocates nothing.
type Window[T grid.Float] struct {
	nc int
	kc []T    // nf rows × nc k-compressed columns of the plane being pre-weighted
	w  [3][]T // pre-weighted planes, by fine plane index mod 3
}

// WindowLen is the number of elements NewWindow carves for coarse side nc:
// 5nc² − nc, at most two fine planes.
func WindowLen(nc int) int { return (2*nc-1)*nc + 3*nc*nc }

// NewWindow carves a Window for coarse side nc from the front of buf, whose
// contents need no initialisation.
func NewWindow[T grid.Float](buf []T, nc int) Window[T] {
	kc := (2*nc - 1) * nc
	w := Window[T]{nc: nc, kc: buf[:kc]}
	for s := range w.w {
		w.w[s] = buf[kc+s*nc*nc : kc+(s+1)*nc*nc]
	}
	return w
}

// Preweight folds fine plane f — nf rows of nf, boundary entries never read —
// into its pre-weighted plane.
func (w *Window[T]) Preweight(f int, plane []T) {
	nc := w.nc
	nf := 2*nc - 1
	kc := w.kc
	for j := 1; j < nf-1; j++ {
		kCompressRow(plane[j*nf:(j+1)*nf], kc[j*nc:(j+1)*nc], nc)
	}
	dst := w.w[f%3]
	for cj := 1; cj < nc-1; cj++ {
		fj := 2 * cj
		a := kc[(fj-1)*nc : fj*nc]
		m := kc[fj*nc : (fj+1)*nc]
		c := kc[(fj+1)*nc : (fj+2)*nc]
		wrow := dst[cj*nc : (cj+1)*nc]
		for ck := 1; ck < nc-1; ck++ {
			wrow[ck] = a[ck] + 2*m[ck] + c[ck]
		}
	}
}

// kCompressRow folds one fine row into its nc k-compressed columns.
func kCompressRow[T grid.Float](row, krow []T, nc int) {
	for ck := 1; ck < nc-1; ck++ {
		fk := 2 * ck
		krow[ck] = row[fk-1] + 2*row[fk] + row[fk+1]
	}
}

// Restrict writes the interior of coarse plane ci from the pre-weighted fine
// planes 2ci−1 … 2ci+1.
func (w *Window[T]) Restrict(coarse *grid.G[T], ci int) {
	nc := w.nc
	wu, wm, wd := w.w[(2*ci-1)%3], w.w[2*ci%3], w.w[(2*ci+1)%3]
	for cj := 1; cj < nc-1; cj++ {
		cr := coarse.Row3(ci, cj)
		u := wu[cj*nc : (cj+1)*nc]
		m := wm[cj*nc : (cj+1)*nc]
		d := wd[cj*nc : (cj+1)*nc]
		for ck := 1; ck < nc-1; ck++ {
			cr[ck] = (u[ck] + 2*m[ck] + d[ck]) * (1.0 / 64.0)
		}
	}
}

// interpEvenRow writes the fine row sitting on top of coarse row cr: copy at
// coincident points, horizontal 2-point average in between. It is the single
// source of the even-row interpolation arithmetic, shared by Interpolate, the
// 3D tensor product, and the per-row providers (InterpRow/InterpRow3), so
// every consumer agrees bit for bit.
func interpEvenRow[T grid.Float](fr, cr []T, nc int) {
	for cj := 0; cj < nc-1; cj++ {
		fj := 2 * cj
		fr[fj] = cr[cj]
		fr[fj+1] = 0.5 * (cr[cj] + cr[cj+1])
	}
	fr[2*(nc-1)] = cr[nc-1]
}

// interpOddRow writes the fine row between coarse rows cr and next: vertical
// 2-point and diagonal 4-point averages. Shared like interpEvenRow.
func interpOddRow[T grid.Float](fr, cr, next []T, nc int) {
	for cj := 0; cj < nc-1; cj++ {
		fj := 2 * cj
		fr[fj] = 0.5 * (cr[cj] + next[cj])
		fr[fj+1] = 0.25 * (cr[cj] + cr[cj+1] + next[cj] + next[cj+1])
	}
	fr[2*(nc-1)] = 0.5 * (cr[nc-1] + next[nc-1])
}

// InterpRow computes fine row fi (0 ≤ fi ≤ nf−1) of the 2D bilinear
// interpolation of coarse into dst (length ≥ 2·coarse.N()−1), bit-identical
// to the row Interpolate would produce before its boundary zeroing. Fused
// upstroke kernels consume interpolation rows one at a time through this
// provider instead of materializing the fine interpolant in a scratch grid.
func InterpRow[T grid.Float](dst []T, coarse *grid.G[T], fi int) {
	nc := coarse.N()
	if fi%2 == 0 {
		interpEvenRow(dst, coarse.Row(fi/2), nc)
		return
	}
	ci := fi / 2
	interpOddRow(dst, coarse.Row(ci), coarse.Row(ci+1), nc)
}

// InterpRow3 computes row (fi, fj) of the trilinear interpolation of coarse
// into dst, bit-identical to interpolate3's output for that row. tmp is
// caller scratch of dst's length, clobbered on odd planes (odd fine planes
// average the two surrounding even-plane interpolants, exactly as the tensor
// product in interpolate3 evaluates them).
func InterpRow3[T grid.Float](dst, tmp []T, coarse *grid.G[T], fi, fj int) {
	nc := coarse.N()
	nf := 2*nc - 1
	ci, cj := fi/2, fj/2
	rowInto := func(buf []T, ci int) {
		if fj%2 == 0 {
			interpEvenRow(buf, coarse.Row3(ci, cj), nc)
			return
		}
		interpOddRow(buf, coarse.Row3(ci, cj), coarse.Row3(ci, cj+1), nc)
	}
	rowInto(dst, ci)
	if fi%2 == 0 {
		return
	}
	rowInto(tmp, ci+1)
	for k := 0; k < nf; k++ {
		dst[k] = 0.5 * (dst[k] + tmp[k])
	}
}

// Interpolate applies bilinear (2D) or trilinear (3D) interpolation of the
// coarse grid into fine: coincident fine points copy the coarse value and
// in-between points average their 2, 4, or 8 coarse neighbours. The fine
// boundary is zeroed (corrections carry no boundary error).
func Interpolate[T grid.Float](pool *sched.Pool, fine, coarse *grid.G[T]) {
	checkLevels(coarse, fine, "Interpolate")
	if fine.Dim() == 3 {
		interpolate3(pool, fine, coarse)
		return
	}
	nc := coarse.N()
	fine.ZeroBoundary()
	// Each coarse row ci owns fine rows 2ci and 2ci+1 (the latter only when
	// a coarse row ci+1 exists), so parallel chunks write disjoint rows.
	body := func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			fi := 2 * ci
			cr := coarse.Row(ci)
			interpEvenRow(fine.Row(fi), cr, nc)
			if ci == nc-1 {
				continue
			}
			interpOddRow(fine.Row(fi+1), cr, coarse.Row(ci+1), nc)
		}
	}
	if pool == nil {
		body(0, nc)
	} else {
		pool.ParallelForPoints(0, nc, 2*fine.N(), body)
	}
	fine.ZeroBoundary()
}

// interpolate3 is trilinear interpolation, the tensor product of the 1D rule
// in two passes: even fine plane 2ci is the 2D bilinear pattern over coarse
// plane ci, boundary entries included, and odd fine plane 2ci+1 is then the
// mean of the two even planes around it — the mean of the interpolants of
// coarse planes ci and ci+1. Chunks of either pass write disjoint planes.
func interpolate3[T grid.Float](pool *sched.Pool, fine, coarse *grid.G[T]) {
	nc, nf := coarse.N(), fine.N()
	even := func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			fi := 2 * ci
			for cj := 0; cj < nc-1; cj++ {
				interpEvenRow(fine.Row3(fi, 2*cj), coarse.Row3(ci, cj), nc)
				interpOddRow(fine.Row3(fi, 2*cj+1), coarse.Row3(ci, cj), coarse.Row3(ci, cj+1), nc)
			}
			interpEvenRow(fine.Row3(fi, nf-1), coarse.Row3(ci, nc-1), nc)
		}
	}
	odd := func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			dst, a, b := fine.Plane(2*ci+1), fine.Plane(2*ci), fine.Plane(2*ci+2)
			for k := range dst {
				dst[k] = 0.5 * (a[k] + b[k])
			}
		}
	}
	if pool == nil {
		even(0, nc)
		odd(0, nc-1)
	} else {
		pool.ParallelForPoints(0, nc, nf*nf, even)
		pool.ParallelForPoints(0, nc-1, nf*nf, odd)
	}
	fine.ZeroBoundary()
}

// InterpolateAdd adds the d-linear interpolation of coarse into x's interior
// — the coarse-grid correction step — without materializing the fine
// interpolant: each chunk evaluates interpolation rows (the InterpRow
// providers) into the first rows of its own first unit of scratch, a grid of
// x's size whose contents are clobbered, and accumulates them immediately.
// The per-point addend and the addition are those of Interpolate followed by
// adding the interpolant's interior into x, in the same per-point order, so
// the result is bit-identical to that pair for any pool and chunking.
func InterpolateAdd[T grid.Float](pool *sched.Pool, x, coarse, scratch *grid.G[T]) {
	checkLevels(coarse, x, "InterpolateAdd")
	nf := x.N()
	if pool == nil {
		interpolateAddUnits(x, coarse, scratch, 1, nf-1)
		return
	}
	points := nf
	if x.Dim() == 3 {
		points *= nf
	}
	pool.ParallelForPoints(1, nf-1, points, func(lo, hi int) { interpolateAddUnits(x, coarse, scratch, lo, hi) })
}

// interpolateAddUnits is InterpolateAdd over fine units lo … hi−1 (rows
// in 2D, planes in 3D), buffering through scratch's unit lo.
func interpolateAddUnits[T grid.Float](x, coarse, scratch *grid.G[T], lo, hi int) {
	nf := x.N()
	if x.Dim() == 3 {
		buf, tmp := scratch.Row3(lo, 0), scratch.Row3(lo, 1)
		for fi := lo; fi < hi; fi++ {
			for fj := 1; fj < nf-1; fj++ {
				InterpRow3(buf, tmp, coarse, fi, fj)
				addInterior(x.Row3(fi, fj), buf)
			}
		}
		return
	}
	buf := scratch.Row(lo)
	for fi := lo; fi < hi; fi++ {
		InterpRow(buf, coarse, fi)
		addInterior(x.Row(fi), buf)
	}
}

// addInterior adds src to dst over the interior columns.
func addInterior[T grid.Float](dst, src []T) {
	src = src[:len(dst)]
	for k := 1; k < len(dst)-1; k++ {
		dst[k] += src[k]
	}
}

// RestrictCoef restricts a nodal coefficient field to the next-coarser
// level by injection: multigrid nodes coincide across levels (coarse point
// (I, J) sits on fine point (2I, 2J)), so injection is exact re-sampling of
// the underlying continuous field — the standard coefficient re-discretization
// for variable-coefficient operators. Unlike Restrict, the boundary is kept
// (coefficients are field data, not residuals).
//
// RestrictCoef is 2D-only: no 3D operator family carries a nodal coefficient
// field yet, and the guard turns an accidental 3D call into an explicit
// error instead of silent index corruption.
func RestrictCoef(coarse, fine *grid.Grid) {
	if coarse.Dim() != 2 || fine.Dim() != 2 {
		panic(fmt.Sprintf("transfer: RestrictCoef is 2D-only, got fine=%dD coarse=%dD", fine.Dim(), coarse.Dim()))
	}
	nc, nf := coarse.N(), fine.N()
	if nf != 2*nc-1 {
		panic(fmt.Sprintf("transfer: RestrictCoef size mismatch fine=%d coarse=%d", nf, nc))
	}
	for ci := 0; ci < nc; ci++ {
		cr := coarse.Row(ci)
		fr := fine.Row(2 * ci)
		for cj := 0; cj < nc; cj++ {
			cr[cj] = fr[2*cj]
		}
	}
}
