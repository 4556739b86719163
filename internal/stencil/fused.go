// Fused single-pass cycle kernels, 2D and 3D. On a memory-bandwidth-bound
// stencil code the separate smooth / residual / restrict / norm passes of a
// V-cycle each re-stream the whole grid, and those redundant traversals — not
// flops — dominate the wall clock. This file fuses them:
//
//   - SmoothResidual: one full red-black SOR sweep that also emits the
//     post-sweep residual grid. Black points get their residual for free
//     from the update delta (after the black half-sweep every neighbour of
//     a black point is final, so r = C·(1−ω)·(gs − x_old)/h², exactly); red
//     points need a fix-up, half the footprint of the standalone Residual
//     kernel.
//   - SmoothResidualRestrict: the whole V-cycle downstroke — smoothing
//     sweep, residual, full-weighting restriction — as one composed kernel:
//     BOTH half-sweeps emit their update deltas into r, a gather over r
//     alone reconstructs the red residuals from their black neighbours'
//     stored deltas (gatherRow), and the restriction consumes the finished
//     rows. The standalone residual pass — a full extra read of x and b —
//     disappears from the downstroke entirely.
//   - SweepWithNorm: the sweep shape of SmoothResidual, but reducing
//     ‖b − T·x‖₂ instead of materializing r — the adaptive driver's
//     per-iteration convergence probe folded into the smoothing it already
//     pays for.
//
// One implementation, two drivers, four families. The loops live in rows.go
// as row kernels; rowOps binds them to one call's grids and operator family
// and exposes them as stages over units — a unit is a grid row in 2D and a
// plane (its interior rows, one row kernel call each) in 3D. With a pool,
// each stage is a barrier-separated pass over all units (chunks own disjoint
// units, so the result is independent of the chunking). Without one, the
// stages run as a wavefront, each trailing the previous by one unit, so the
// fine grids are streamed once instead of once per stage:
//
//	sweep        relax red(i) → relax black(i−1)
//	downstroke   red(i) → black+emit(i−1) → fix-up(i−2) → restrict((i−3)/2)
//	upstroke     correct(i) → relax red(i−1) → relax black(i−2)
//	norm         red(i) → black+reduce(i−1) → reduce red residuals(i−2)
//
// (The restrict stage is 2D's; the separable 27-point restriction follows the
// 3D wavefront as a pass — see smoothResidual.)
//
// A stage may run on a unit as soon as the units it reads are final for the
// stage before it, and must run before any unit it reads is overwritten by
// the stage after it; one unit of lag satisfies both for a stencil that
// reaches one row, or one plane, either way (black(i−1) reads reds of units
// i−2 … i, all relaxed once red(i) is; red(i+1), the next to run, reads only
// blacks of units i … i+2, none yet relaxed; within a plane, as within a row,
// points of one colour never read each other). Every point therefore sees
// exactly the operands it sees in the pass order, and the two drivers agree
// bit for bit.
//
// Norm reductions accumulate per interior unit into a fixed partial sum
// array and add the units in index order at the end, so the result is
// bit-identical for either driver, any worker count and any chunking — the
// deterministic fixed-chunk reduction contract the adaptive driver and
// refsol rely on.
//
// The unfused kernels in stencil.go/stencil3d.go/operator.go remain the
// oracle: the fused paths are exercised against them point-for-point by the
// equivalence and fuzz suites. Iterates are bit-identical to the unfused
// sweep; fused residual/restriction values agree to floating-point
// association (≤1e-12 of the data scale) where a derivation or summation
// order differs.
package stencil

import (
	"math"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/transfer"
)

// sumUnits adds per-unit partial sums in index order and returns the L2 norm.
func sumUnits(sums []float64, n int) float64 {
	var total float64
	for i := 1; i < n-1; i++ {
		total += sums[i]
	}
	return math.Sqrt(total)
}

// gatherMinOneMinusOmega gates the delta-gather downstroke: reconstructing
// red residuals from stored black residuals divides by C·(1−ω), so the
// reconstruction is used only when |1−ω| is large enough that the division
// does not amplify rounding error past the fused kernels' 1e-12 contract.
// The gathered correction κ·r_black = ω·c·d/h² is itself well-conditioned
// (the (1−ω) factors cancel); what is amplified is only r_black's own
// rounding, giving a reconstruction error of order eps·ω/(C·|1−ω|) relative
// to the residual scale — ≈6e-14 at the gate, a 16× margin. Below the gate
// (including plain Gauss-Seidel, ω = 1, where the stored deltas vanish
// identically) the composed kernel evaluates red residuals directly from
// (x, b). Every in-cycle smoothing weight the operator families use
// (stencil.Operator.OmegaSmooth; the smallest is 1 + 0.15·ε for strong
// anisotropy, ≥ the gate for ε ≥ 0.0067) takes the gather path.
const gatherMinOneMinusOmega = 1e-3

// rowOps binds the row kernels of one operator family to the grids and
// weights of one kernel call. Its methods are the stages the drivers
// schedule, one unit at a time: a unit is row i of a 2D grid, and every
// interior row (i, j) of plane i of a 3D one. A 2D row is addressed as
// (i, 0), so a point's colour offset is i+j+1+colour in both dimensions.
type rowOps[T grid.Float] struct {
	family     Family
	n          int
	x, b, r, c *grid.G[T] // r: residual grid, nil for kernels that emit none; c: coefficient field, varcoef only

	h2, inv, omega T
	// Constant-coefficient weights (the Laplacians are cx = cy = 1): center
	// C = 2·(cx+cy), or 6 in 3D, invC = 1/C, and rFac = C·(1−ω)/h², the
	// factor turning an update delta into a residual.
	cx, cy, center, invC, rFac T
	// gather selects the downstroke's red fix-up: reconstruct from stored
	// deltas with weights kx, ky (gatherRow; 3D has the one weight kx), or
	// evaluate directly.
	gather bool
	kx, ky T
}

// bindRows prepares the row kernels of op for a sweep of weight omega over
// (x, b) at mesh width h, emitting residuals into r if non-nil.
func bindRows[T grid.Float](op *Operator, x, b, r *grid.G[T], h, omega T) rowOps[T] {
	h2 := h * h
	k := rowOps[T]{family: op.family, n: x.N(), x: x, b: b, r: r, h2: h2, inv: 1 / h2, omega: omega, cx: 1, cy: 1}
	switch op.family {
	case FamilyAnisotropic:
		k.cx = T(op.eps)
	case FamilyVarCoef:
		op.checkSize(k.n)
		k.c = opCoef[T](op)
	}
	k.center = 2 * (k.cx + k.cy)
	if k.dim3() {
		k.center = 6
	}
	k.invC = 1 / k.center
	k.rFac = k.center * (1 - omega) * k.inv
	return k
}

// bindGather switches the red fix-up to the delta gather when the family
// supports it and ω is far enough from 1. It does not pay for a variable
// coefficient: undoing a neighbour's delta encoding needs the neighbour's
// center coefficient, which costs the same face-average arithmetic as
// evaluating the red residual directly.
func (k *rowOps[T]) bindGather() {
	om := 1 - k.omega
	if k.family == FamilyVarCoef || (om < gatherMinOneMinusOmega && om > -gatherMinOneMinusOmega) {
		return
	}
	kappa := k.omega / (k.center * om)
	k.gather, k.kx, k.ky = true, kappa*k.cx, kappa*k.cy
}

func (k *rowOps[T]) dim3() bool { return k.family == FamilyPoisson3D }

// forUnits runs body over the interior units [1, n−1), on the pool when it
// is non-nil and the grid is large enough (a row is n points of work for the
// gate, a plane n²).
func (k *rowOps[T]) forUnits(pool *sched.Pool, body func(lo, hi int)) {
	if k.dim3() {
		parallelPlanes(pool, k.n, body)
	} else {
		parallelRows(pool, k.n, body)
	}
}

// planes returns plane i of g and the planes either side of it. Row j of a
// plane p is p[j·n:(j+1)·n], with its north and south neighbour rows
// adjacent in the same slice.
func planes[T grid.Float](g *grid.G[T], i int) (p, up, down []T) {
	return g.Plane(i), g.Plane(i - 1), g.Plane(i + 1)
}

// relax relaxes the points of one colour (0 red: coordinate sum even,
// 1 black) in unit i.
func (k *rowOps[T]) relax(i, colour int) {
	c := i + 1 + colour
	if k.dim3() {
		n := k.n
		x, up, down := planes(k.x, i)
		b := k.b.Plane(i)
		for j := 1; j < n-1; j++ {
			lo, hi := j*n, (j+1)*n
			relaxRow3(x[lo:hi], up[lo:hi], down[lo:hi], x[lo-n:lo], x[hi:hi+n], b[lo:hi], c+j, k.h2, k.omega)
		}
		return
	}
	xr, up, down, br := k.x.Row(i), k.x.Row(i-1), k.x.Row(i+1), k.b.Row(i)
	switch k.family {
	case FamilyPoisson:
		relaxRow(xr, up, down, br, c, k.h2, k.omega)
	case FamilyAnisotropic:
		relaxRowConst(xr, up, down, br, c, k.h2, k.omega, k.cx, k.cy, k.invC)
	default:
		relaxRowVar(xr, up, down, br, k.c.Row(i), k.c.Row(i-1), k.c.Row(i+1), c, k.h2, k.omega)
	}
}

// relaxEmit is relax that also stores each relaxed point's delta-derived
// residual into r.
func (k *rowOps[T]) relaxEmit(i, colour int) {
	c := i + 1 + colour
	if k.dim3() {
		n := k.n
		x, up, down := planes(k.x, i)
		b, r := k.b.Plane(i), k.r.Plane(i)
		for j := 1; j < n-1; j++ {
			lo, hi := j*n, (j+1)*n
			relaxEmitRow3(x[lo:hi], up[lo:hi], down[lo:hi], x[lo-n:lo], x[hi:hi+n], b[lo:hi], r[lo:hi], c+j, k.h2, k.omega, k.rFac)
		}
		return
	}
	xr, up, down, br, rr := k.x.Row(i), k.x.Row(i-1), k.x.Row(i+1), k.b.Row(i), k.r.Row(i)
	switch k.family {
	case FamilyPoisson:
		relaxEmitRow(xr, up, down, br, rr, c, k.h2, k.omega, k.rFac)
	case FamilyAnisotropic:
		relaxEmitRowConst(xr, up, down, br, rr, c, k.h2, k.omega, k.cx, k.cy, k.invC, k.rFac)
	default:
		relaxEmitRowVar(xr, up, down, br, rr, k.c.Row(i), k.c.Row(i-1), k.c.Row(i+1), c, k.h2, k.omega, k.inv)
	}
}

// residual evaluates b − T·x directly from the iterate at the red points of
// unit i, and with black also at the black ones, into dst, a slice laid out
// like the unit.
func (k *rowOps[T]) residual(dst []T, i int, black bool) {
	c, colours := i+1, 1
	if black {
		colours = 2
	}
	if k.dim3() {
		n := k.n
		x, up, down := planes(k.x, i)
		b := k.b.Plane(i)
		for j := 1; j < n-1; j++ {
			lo, hi := j*n, (j+1)*n
			for cc := c + j; cc < c+j+colours; cc++ {
				residualRow3(dst[lo:hi], x[lo:hi], up[lo:hi], down[lo:hi], x[lo-n:lo], x[hi:hi+n], b[lo:hi], cc, k.inv)
			}
		}
		return
	}
	xr, up, down, br := k.x.Row(i), k.x.Row(i-1), k.x.Row(i+1), k.b.Row(i)
	for cc := c; cc < c+colours; cc++ {
		switch k.family {
		case FamilyPoisson:
			residualRow(dst, xr, up, down, br, cc, k.inv)
		case FamilyAnisotropic:
			residualRowConst(dst, xr, up, down, br, cc, k.inv, k.cx, k.cy, k.center)
		default:
			residualRowVar(dst, xr, up, down, br, k.c.Row(i), k.c.Row(i-1), k.c.Row(i+1), cc, k.inv)
		}
	}
}

// relaxRed is the downstroke's first stage: the red half-sweep, emitting
// mid-sweep residuals when the fix-up will gather them.
func (k *rowOps[T]) relaxRed(i int) {
	if k.gather {
		k.relaxEmit(i, 0)
	} else {
		k.relax(i, 0)
	}
}

// fixup completes the red residuals of unit i once the black half-sweep has
// passed units i−1 … i+1.
func (k *rowOps[T]) fixup(i int) {
	switch {
	case !k.gather && k.dim3():
		k.residual(k.r.Plane(i), i, false)
	case !k.gather:
		k.residual(k.r.Row(i), i, false)
	case k.dim3():
		n := k.n
		r, up, down := planes(k.r, i)
		for j := 1; j < n-1; j++ {
			lo, hi := j*n, (j+1)*n
			gatherRow3(r[lo:hi], up[lo:hi], down[lo:hi], r[lo-n:lo], r[hi:hi+n], i+j+1, k.kx)
		}
	default:
		gatherRow(k.r.Row(i), k.r.Row(i-1), k.r.Row(i+1), i+1, k.kx, k.ky)
	}
}

// sweep runs one full red-black SOR sweep.
func (k *rowOps[T]) sweep(pool *sched.Pool) {
	if pool != nil {
		k.halfSweep(pool, 0)
		k.halfSweep(pool, 1)
		return
	}
	n := k.n
	k.relax(1, 0)
	for i := 2; i < n-1; i++ {
		k.relax(i, 0)
		k.relax(i-1, 1)
	}
	k.relax(n-2, 1)
}

// halfSweep relaxes one colour of every interior unit.
func (k *rowOps[T]) halfSweep(pool *sched.Pool, colour int) {
	if pool == nil {
		for i := 1; i < k.n-1; i++ {
			k.relax(i, colour)
		}
		return
	}
	halfSweepPass(pool, *k, colour)
}

// halfSweepPass takes its rowOps by value: the task closure makes it escape,
// and a copy keeps the serial callers' binding on their stack.
func halfSweepPass[T grid.Float](pool *sched.Pool, k rowOps[T], colour int) {
	k.forUnits(pool, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relax(i, colour)
		}
	})
}

// smoothResidual runs one sweep on x leaving r = b − T·x (post-sweep, zero
// boundary) and, with coarse non-nil, its full-weighting restriction — the
// V-cycle downstroke. Serial execution is the wavefront of the file comment.
// In 2D restriction is its last stage, trailing the fix-up by one more row:
// coarse row ci is produced as soon as fine rows 2ci−1 … 2ci+1 are complete.
// The separable 27-point restriction carries a rolling window of pre-weighted
// planes from one coarse plane to the next, so in 3D it stays a pass of its
// own behind the wavefront.
func (k *rowOps[T]) smoothResidual(pool *sched.Pool, coarse *grid.G[T]) {
	k.r.ZeroBoundary()
	if pool != nil {
		smoothResidualPasses(pool, *k, coarse)
		return
	}
	staged := coarse != nil && !k.dim3()
	if staged {
		coarse.ZeroBoundary()
	}
	n := k.n
	for i := 1; i <= n; i++ {
		if i < n-1 {
			k.relaxRed(i)
		}
		if i > 1 && i < n {
			k.relaxEmit(i-1, 1)
		}
		if f := i - 2; f >= 1 {
			k.fixup(f)
			if staged && f >= 3 && f&1 == 1 {
				transfer.RestrictRow(coarse, k.r, f/2)
			}
		}
	}
	if coarse != nil && !staged {
		k.restrictPass(nil, coarse)
	}
}

// smoothResidualPasses is smoothResidual in pass order, one barrier per
// stage (by-value receiver: see halfSweepPass).
func smoothResidualPasses[T grid.Float](pool *sched.Pool, k rowOps[T], coarse *grid.G[T]) {
	k.forUnits(pool, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relaxRed(i)
		}
	})
	k.forUnits(pool, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relaxEmit(i, 1)
		}
	})
	k.forUnits(pool, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.fixup(i)
		}
	})
	if coarse != nil {
		k.restrictPass(pool, coarse)
	}
}

// restrictPass restricts the finished residual grid into coarse as a pass of
// its own.
func (k *rowOps[T]) restrictPass(pool *sched.Pool, coarse *grid.G[T]) {
	if k.dim3() {
		transfer.RestrictSep3(pool, coarse, k.r)
	} else {
		transfer.Restrict(pool, coarse, k.r)
	}
}

// residualRestrict restricts b − T·x into coarse without a fine residual
// grid: the transfer package's rolling-window drivers pull residual units
// from a provider that evaluates them into a buffer laid out like the unit
// (row j at j·n), edges zeroed. The per-point expression is the unfused
// Residual kernel's.
func residualRestrict[T grid.Float](pool *sched.Pool, k rowOps[T], coarse *grid.G[T]) {
	n := k.n
	provide := func(fi int, dst []T) { //mglint:allow hotalloc — kernel factory: one residual-provider closure per fused cycle, not per point
		if k.dim3() {
			clear(dst[:n])
			clear(dst[(n-1)*n:])
		}
		for lo := 0; lo < len(dst); lo += n {
			dst[lo], dst[lo+n-1] = 0, 0
		}
		k.residual(dst, fi, true)
	}
	if k.dim3() {
		transfer.RestrictResidual3(pool, coarse, n, provide)
	} else {
		transfer.RestrictResidual(pool, coarse, n, provide)
	}
}

// The stages a norm-reducing sweep can start from: the whole sweep
// (SweepWithNorm), its black half (FinishSmoothWithNorm, behind a stroke that
// stopped after the red half), or no sweep at all (ResidualNorm).
const (
	normFromRed = iota
	normFromBlack
	normOnly
)

// unitNorm returns ‖b − T·x‖₂ over the interior, running the stages from
// first on: relax red(i) → relax black(i−1), reducing the residuals its
// update deltas imply → reduce the red residuals of the final iterate (i−2).
// With normOnly the last stage reduces every point's residual instead.
// Serially the stages run as the wavefront of the file comment, with a pool
// as passes; each unit accumulates its own partial sum, black terms before
// red, and sumUnits adds them in index order, so the norm does not depend on
// the driver, the pool or its chunking.
func unitNorm[T grid.Float](pool *sched.Pool, k rowOps[T], first int) float64 {
	n := k.n
	sums := make([]float64, n) //mglint:allow hotalloc — per-call norm partials, one float64 per unit; fixed-chunk deterministic reduction
	colour := 0
	if first == normOnly {
		colour = everyPoint
	}
	if pool != nil {
		normPasses(pool, k, first, colour, sums)
		return sumUnits(sums, n)
	}
	for i := 1; i <= n; i++ {
		if first == normFromRed && i < n-1 {
			k.relax(i, 0)
		}
		if first < normOnly && i > 1 && i < n {
			sums[i-1] = k.relaxSq(i - 1)
		}
		if f := i - 2; f >= 1 {
			sums[f] = k.residualSq(f, colour, sums[f])
		}
	}
	return sumUnits(sums, n)
}

// normPasses is unitNorm's stages in pass order (by-value receiver: see
// halfSweepPass).
func normPasses[T grid.Float](pool *sched.Pool, k rowOps[T], first, colour int, sums []float64) {
	if first == normFromRed {
		halfSweepPass(pool, k, 0)
	}
	if first < normOnly {
		k.forUnits(pool, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sums[i] = k.relaxSq(i)
			}
		})
	}
	k.forUnits(pool, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[i] = k.residualSq(i, colour, sums[i])
		}
	})
}

// relaxSq is relax(i, 1) returning the sum of squares of the black points'
// post-sweep residuals, derived from their update deltas (see relaxEmitRow).
func (k *rowOps[T]) relaxSq(i int) float64 {
	var s float64
	if k.dim3() {
		n := k.n
		x, up, down := planes(k.x, i)
		b := k.b.Plane(i)
		for j := 1; j < n-1; j++ {
			lo, hi := j*n, (j+1)*n
			s = relaxSqRow3(x[lo:hi], up[lo:hi], down[lo:hi], x[lo-n:lo], x[hi:hi+n], b[lo:hi], i+j, k.h2, k.omega, k.rFac, s)
		}
		return s
	}
	xr, up, down, br := k.x.Row(i), k.x.Row(i-1), k.x.Row(i+1), k.b.Row(i)
	switch k.family {
	case FamilyPoisson:
		return relaxSqRow(xr, up, down, br, i, k.h2, k.omega, k.rFac, s)
	case FamilyAnisotropic:
		return relaxSqRowConst(xr, up, down, br, i, k.h2, k.omega, k.cx, k.cy, k.invC, k.rFac, s)
	default:
		return relaxSqRowVar(xr, up, down, br, k.c.Row(i), k.c.Row(i-1), k.c.Row(i+1), i, k.h2, k.omega, k.inv, s)
	}
}

// residualSq adds to s the squared residuals of one colour of unit i, or of
// everyPoint.
func (k *rowOps[T]) residualSq(i, colour int, s float64) float64 {
	c := colour
	if c != everyPoint {
		c += i + 1
	}
	if k.dim3() {
		n := k.n
		x, up, down := planes(k.x, i)
		b := k.b.Plane(i)
		for j := 1; j < n-1; j++ {
			lo, hi := j*n, (j+1)*n
			cj := c
			if c != everyPoint {
				cj += j
			}
			s = residualSqRow3(x[lo:hi], up[lo:hi], down[lo:hi], x[lo-n:lo], x[hi:hi+n], b[lo:hi], cj, k.inv, s)
		}
		return s
	}
	xr, up, down, br := k.x.Row(i), k.x.Row(i-1), k.x.Row(i+1), k.b.Row(i)
	switch k.family {
	case FamilyPoisson:
		return residualSqRow(xr, up, down, br, c, k.inv, s)
	case FamilyAnisotropic:
		return residualSqRowConst(xr, up, down, br, c, k.inv, k.cx, k.cy, k.center, s)
	default:
		return residualSqRowVar(xr, up, down, br, k.c.Row(i), k.c.Row(i-1), k.c.Row(i+1), c, k.inv, s)
	}
}
