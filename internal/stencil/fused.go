// Fused single-pass cycle kernels, 2D and 3D. On a memory-bandwidth-bound
// stencil code the separate smooth / residual / restrict passes of a V-cycle
// each re-stream the whole grid, and those redundant traversals — not flops —
// dominate the wall clock. This file fuses them into the downstroke
// (OpDownstroke; OpSmoothResidualRestrict for callers with no scratch grid
// to offer): the smoothing sweep, residual and full-weighting restriction as
// one composed kernel. Both half-sweeps emit their update deltas into r —
// after the black half-sweep every neighbour of a black point is final, so
// its residual is C·(1−ω)·(gs − x_old)/h², exactly — a fix-up completes the
// red residuals, either by a gather over r alone that reconstructs them from
// their black neighbours' stored deltas (gatherRow) or by evaluating them
// directly from the iterate, and the restriction consumes the finished
// units. The standalone residual pass — a full extra read of x and b —
// disappears from the downstroke entirely.
//
// One implementation, one binding, four families. The loops live in rows.go
// as row kernels; rowOps binds them to one call's grids and operator family
// and exposes them as stages over units — a unit is a grid row in 2D and a
// plane (its interior rows, one row kernel call each) in 3D. Every entry point
// of the package runs through it, the single-stage ones (OpResidual,
// OpResidualNorm) included. With a pool and a grid large enough for it to
// split, each stage is a barrier-separated pass over all units (chunks own
// disjoint units, so the result is independent of the chunking). Otherwise
// the stages run as a wavefront, each trailing the previous by one unit, so
// the fine grids are streamed once instead of once per stage and no task
// closure is built:
//
//	sweep        relax red(i) → relax black(i−1)
//	downstroke   red(i) → black+emit(i−1) → fix-up(i−2) → restrict(i−2)
//	upstroke     correct(i) → relax red(i−1) → relax black(i−2)
//
// Every buffer a stage needs beyond the grids it is bound to — interpolation
// rows, the 3D restriction window — is carved from a scratch grid the caller
// hands in, so a cycle step allocates nothing.
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
// The residual norm (OpResidualNorm) sums each interior unit on its own and
// adds the units in index order, so the result is bit-identical for either
// driver, any worker count and any chunking — the deterministic reduction
// contract refsol relies on.
//
// The oracles live in the tests: oracle_test.go writes the sweep, the
// residual and the operator apply point by point, with the operands
// in the order the row kernels must keep, and pins the single-stage entry
// points to them bit for bit; the equivalence and fuzz suites hold the fused
// paths to those. Iterates are bit-identical to the
// unfused sweep; fused residual/restriction values agree to floating-point
// association (≤1e-12 of the data scale) where a derivation or summation
// order differs.
package stencil

import (
	"math"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/transfer"
)

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
	pool       *sched.Pool // nil unless it splits the grid: selects the pass driver
	x, b, r, c *grid.G[T]  // r: residual grid, nil for kernels that emit none; c: coefficient field, varcoef only
	// rolling keeps residual unit f in unit f mod 3 of r instead of unit f:
	// the serial residualRestrict never needs more than three at once.
	rolling bool

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
// (x, b) at mesh width h, emitting residuals into r if non-nil. The pool is
// bound only for a grid it would split (sched.Pool.Splits): below that every
// pass would run on the caller anyway, so small grids take the serial drivers
// whatever the workspace's pool.
func bindRows[T grid.Float](op *Operator, pool *sched.Pool, x, b, r *grid.G[T], h, omega T) rowOps[T] {
	h2 := h * h
	k := rowOps[T]{family: op.family, n: x.N(), x: x, b: b, r: r, h2: h2, inv: 1 / h2, omega: omega, cx: 1, cy: 1}
	if pool != nil && pool.Splits(k.n-2, k.unitPoints()) {
		k.pool = pool
	}
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

// unitPoints is the work of one unit for the pool's gate: a row is n points,
// a plane n².
func (k *rowOps[T]) unitPoints() int {
	if k.dim3() {
		return k.n * k.n
	}
	return k.n
}

// forUnits runs body over the interior units [1, n−1), on the pool if bound.
func (k *rowOps[T]) forUnits(body func(lo, hi int)) {
	if k.pool == nil {
		body(1, k.n-1)
		return
	}
	k.pool.ParallelForPoints(1, k.n-1, k.unitPoints(), body)
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
// unit i, or with all at every point, into dst, a slice laid out like the
// unit.
func (k *rowOps[T]) residual(dst []T, i int, all bool) {
	c := i + 1
	if all {
		c = everyPoint
	}
	if k.dim3() {
		n := k.n
		x, up, down := planes(k.x, i)
		b := k.b.Plane(i)
		for j := 1; j < n-1; j++ {
			lo, hi := j*n, (j+1)*n
			cj := c
			if !all {
				cj += j
			}
			residualRow3(dst[lo:hi], x[lo:hi], up[lo:hi], down[lo:hi], x[lo-n:lo], x[hi:hi+n], b[lo:hi], cj, k.inv)
		}
		return
	}
	xr, up, down, br := k.x.Row(i), k.x.Row(i-1), k.x.Row(i+1), k.b.Row(i)
	switch k.family {
	case FamilyPoisson:
		residualRow(dst, xr, up, down, br, c, k.inv)
	case FamilyAnisotropic:
		residualRowConst(dst, xr, up, down, br, c, k.inv, k.cx, k.cy, k.center)
	default:
		residualRowVar(dst, xr, up, down, br, k.c.Row(i), k.c.Row(i-1), k.c.Row(i+1), c, k.inv)
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
func (k *rowOps[T]) sweep() {
	if k.pool != nil {
		k.halfSweep(0)
		k.halfSweep(1)
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
func (k *rowOps[T]) halfSweep(colour int) {
	if k.pool == nil {
		for i := 1; i < k.n-1; i++ {
			k.relax(i, colour)
		}
		return
	}
	halfSweepPass(*k, colour)
}

// halfSweepPass takes its rowOps by value: the loop body makes it escape,
// and a copy keeps the serial callers' binding on their stack.
func halfSweepPass[T grid.Float](k rowOps[T], colour int) {
	k.forUnits(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relax(i, colour)
		}
	})
}

// smoothResidual runs one sweep on x leaving r = b − T·x (post-sweep, zero
// boundary) and its full-weighting restriction in coarse — the V-cycle
// downstroke. Serial execution is the wavefront of the file comment;
// restriction is its last stage, one more unit behind the fix-up. scratch
// supplies the 3D restriction window (see window).
func (k *rowOps[T]) smoothResidual(coarse, scratch *grid.G[T]) {
	k.r.ZeroBoundary()
	if k.pool != nil {
		smoothResidualPasses(*k, coarse, scratch)
		return
	}
	coarse.ZeroBoundary()
	win := k.window(scratch, 1)
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
			k.restrict(&win, coarse, f)
		}
	}
}

// smoothResidualPasses is smoothResidual in pass order, one barrier per
// stage (by-value receiver: see halfSweepPass).
func smoothResidualPasses[T grid.Float](k rowOps[T], coarse, scratch *grid.G[T]) {
	k.forUnits(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relaxRed(i)
		}
	})
	k.forUnits(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relaxEmit(i, 1)
		}
	})
	k.forUnits(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.fixup(i)
		}
	})
	restrictPass(k, coarse, scratch)
}

// resUnit returns the storage of residual unit f.
func (k *rowOps[T]) resUnit(f int) []T {
	if k.rolling {
		f %= 3
	}
	n := k.unitPoints()
	return k.r.Data()[f*n : (f+1)*n]
}

// window carves the 3D restriction window of a chunk of coarse planes
// starting at lo from the chunk's own fine planes 2lo and 2lo+1 of scratch —
// or allocates it, for the one entry point with no scratch to offer. 2D
// restricts straight from the residual rows and has none. Kept out of line
// so that allocation stays a single site in the escape gate's ledger.
//
//go:noinline
func (k *rowOps[T]) window(scratch *grid.G[T], lo int) (win transfer.Window[T]) {
	nc := grid.Coarsen(k.n)
	switch {
	case !k.dim3():
	case scratch == nil:
		win = transfer.NewWindow(make([]T, transfer.WindowLen(nc)), nc) // OpSmoothResidualRestrict has no scratch parameter; only bench/ and test oracles call it, every cycle goes through OpDownstroke
	default:
		win = transfer.NewWindow(scratch.Data()[2*lo*k.n*k.n:], nc)
	}
	return win
}

// restrict is the stage that consumes residual unit f once it is final: in
// 3D it pre-weights the plane into win, and when f closes the three fine
// units around a coarse one (f = 2ci+1) it emits coarse unit ci — in 2D with
// the 9-point weights in Restrict's evaluation order, in 3D separably.
func (k *rowOps[T]) restrict(win *transfer.Window[T], coarse *grid.G[T], f int) {
	emit := f&1 == 1 && f >= 3
	if k.dim3() {
		win.Preweight(f, k.resUnit(f))
		if emit {
			win.Restrict(coarse, f/2)
		}
		return
	}
	if !emit {
		return
	}
	u, m, d := f-2, f-1, f
	if k.rolling {
		u, m, d = u%3, m%3, d%3
	}
	r, n := k.r.Data(), k.n
	transfer.RestrictRow(coarse.Row(f/2), r[u*n:(u+1)*n], r[m*n:(m+1)*n], r[d*n:(d+1)*n])
}

// restrictPass restricts the finished residual grid into coarse as a pass of
// its own: chunks own disjoint coarse units and, in 3D, pre-weight their one
// boundary-overlap plane 2lo−1 themselves (by-value receiver: see
// halfSweepPass).
func restrictPass[T grid.Float](k rowOps[T], coarse, scratch *grid.G[T]) {
	coarse.ZeroBoundary()
	body := func(lo, hi int) {
		win := k.window(scratch, lo)
		if k.dim3() {
			win.Preweight(2*lo-1, k.r.Plane(2*lo-1))
		}
		for f := 2 * lo; f < 2*hi; f++ {
			k.restrict(&win, coarse, f)
		}
	}
	if nc := coarse.N(); k.pool == nil {
		body(1, nc-1)
	} else {
		k.pool.ParallelForPoints(1, nc-1, 2*k.unitPoints(), body)
	}
}

// residualRestrict restricts b − T·x into coarse with no sweep before it. The
// per-point residual is OpResidual's expression, evaluated
// into r a unit at a time; serially each unit is restricted while it is
// still in cache and r only ever holds the last three (rolling), so the fine
// residual grid is never streamed. With a pool it is two passes over all of
// r. Either way r's boundary is never read and is left as it was.
func (k *rowOps[T]) residualRestrict(coarse, scratch *grid.G[T]) {
	if k.pool != nil {
		residualRestrictPasses(*k, coarse, scratch)
		return
	}
	coarse.ZeroBoundary()
	k.rolling = true
	win := k.window(scratch, 1)
	for f := 1; f < k.n-1; f++ {
		k.residual(k.resUnit(f), f, true)
		k.restrict(&win, coarse, f)
	}
}

// residualRestrictPasses is residualRestrict in pass order (by-value
// receiver: see halfSweepPass).
func residualRestrictPasses[T grid.Float](k rowOps[T], coarse, scratch *grid.G[T]) {
	residualPass(k)
	restrictPass(k, coarse, scratch)
}

// residualGrid evaluates r = b − T·x at every interior point and zeroes r's
// boundary: the whole-grid residual, one unit at a time.
func (k *rowOps[T]) residualGrid() {
	k.r.ZeroBoundary()
	if k.pool != nil {
		residualPass(*k)
		return
	}
	for i := 1; i < k.n-1; i++ {
		k.residual(k.resUnit(i), i, true)
	}
}

// residualPass evaluates every interior unit of r as a pass (by-value
// receiver: see halfSweepPass).
func residualPass[T grid.Float](k rowOps[T]) {
	k.forUnits(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.residual(k.resUnit(i), i, true)
		}
	})
}

// residualNorm returns ‖b − T·x‖₂ over the interior. Each unit sums its own
// squared residuals and the units are added in index order, so the norm does
// not depend on the driver, the pool or its chunking.
func (k *rowOps[T]) residualNorm() float64 {
	if k.pool != nil {
		return normPass(*k)
	}
	var total float64
	for i := 1; i < k.n-1; i++ {
		total += k.residualSq(i)
	}
	return math.Sqrt(total)
}

// normPass is residualNorm's pooled pass (by-value receiver: see
// halfSweepPass).
func normPass[T grid.Float](k rowOps[T]) float64 {
	sums := make([]float64, k.n) // per-unit partials of the pooled pass only (whose dispatch allocates its region anyway); the serial driver reduces in index order without them
	k.forUnits(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[i] = k.residualSq(i)
		}
	})
	var total float64
	for i := 1; i < k.n-1; i++ {
		total += sums[i]
	}
	return math.Sqrt(total)
}

// residualSq returns the sum of the squared residuals of unit i.
func (k *rowOps[T]) residualSq(i int) float64 {
	if k.dim3() {
		n := k.n
		x, up, down := planes(k.x, i)
		b := k.b.Plane(i)
		var s float64
		for j := 1; j < n-1; j++ {
			lo, hi := j*n, (j+1)*n
			s = residualSqRow3(x[lo:hi], up[lo:hi], down[lo:hi], x[lo-n:lo], x[hi:hi+n], b[lo:hi], k.inv, s)
		}
		return s
	}
	xr, up, down, br := k.x.Row(i), k.x.Row(i-1), k.x.Row(i+1), k.b.Row(i)
	switch k.family {
	case FamilyPoisson:
		return residualSqRow(xr, up, down, br, k.inv, 0)
	case FamilyAnisotropic:
		return residualSqRowConst(xr, up, down, br, k.inv, k.cx, k.cy, k.center, 0)
	default:
		return residualSqRowVar(xr, up, down, br, k.c.Row(i), k.c.Row(i-1), k.c.Row(i+1), k.inv, 0)
	}
}
