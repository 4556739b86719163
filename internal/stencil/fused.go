// Fused single-pass cycle kernels (2D). On a memory-bandwidth-bound stencil
// code the separate smooth / residual / restrict / norm passes of a V-cycle
// each re-stream the whole grid, and those redundant traversals — not flops —
// dominate the wall clock. This file fuses them:
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
// One implementation, two drivers. The loops live in rows.go as row kernels;
// rowOps binds them to one call's grids and operator family. With a pool,
// each stage is a barrier-separated pass over all rows (chunks own disjoint
// rows, so the result is independent of the chunking). Without one, the
// stages run as a row wavefront, each trailing the previous by one row, so
// the fine grids are streamed once instead of once per stage:
//
//	sweep        relax red(i) → relax black(i−1)
//	downstroke   red(i) → black+emit(i−1) → fix-up(i−2) → restrict((i−3)/2)
//	upstroke     correct(i) → relax red(i−1) → relax black(i−2)
//
// A stage may run on a row as soon as the rows it reads are final for the
// stage before it, and must run before any row it reads is overwritten by
// the stage after it; one row of lag satisfies both for a 5-point stencil
// (black(i−1) reads reds of rows i−2 … i, all relaxed once red(i) is;
// red(i+1), the next to run, reads only blacks of rows i … i+2, none yet
// relaxed). Every point therefore sees exactly the operands it sees in the
// pass order, and the two drivers agree bit for bit.
//
// Norm reductions accumulate per interior row into a fixed per-row partial
// sum array and add the rows in index order at the end, so the result is
// bit-identical for any worker count and any chunking — the deterministic
// fixed-chunk reduction contract the adaptive driver and refsol rely on.
//
// The unfused kernels in stencil.go/operator.go remain the oracle: the
// fused paths are exercised against them point-for-point by the equivalence
// and fuzz suites. Iterates are bit-identical to the unfused sweep; fused
// residual/restriction values agree to floating-point association (≤1e-12
// of the data scale) where a derivation or summation order differs.
package stencil

import (
	"math"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/transfer"
)

// sumRows adds per-row partial sums in index order and returns the L2 norm.
func sumRows(sums []float64, n int) float64 {
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

// rowOps binds the row kernels of one 2D operator family to the grids and
// weights of one kernel call. Its methods are the stages the drivers
// schedule: each applies one row kernel to row i.
type rowOps[T grid.Float] struct {
	family     Family
	n          int
	x, b, r, c *grid.G[T] // r: residual grid, nil for kernels that emit none; c: coefficient field, varcoef only

	h2, inv, omega T
	// Constant-coefficient weights (the Laplacian is cx = cy = 1): center
	// C = 2·(cx+cy), invC = 1/C, and rFac = C·(1−ω)/h², the factor turning
	// an update delta into a residual.
	cx, cy, center, invC, rFac T
	// gather selects the downstroke's red fix-up: reconstruct from stored
	// deltas with weights kx, ky (gatherRow), or evaluate directly.
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

// relax relaxes the points of one colour (0 red: i+j even, 1 black) in row i.
func (k *rowOps[T]) relax(i, colour int) {
	c := i + 1 + colour
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

// residual evaluates b − T·x at one colour of row i into rr, directly from
// the iterate.
func (k *rowOps[T]) residual(rr []T, i, colour int) {
	c := i + 1 + colour
	xr, up, down, br := k.x.Row(i), k.x.Row(i-1), k.x.Row(i+1), k.b.Row(i)
	switch k.family {
	case FamilyPoisson:
		residualRow(rr, xr, up, down, br, c, k.inv)
	case FamilyAnisotropic:
		residualRowConst(rr, xr, up, down, br, c, k.inv, k.cx, k.cy, k.center)
	default:
		residualRowVar(rr, xr, up, down, br, k.c.Row(i), k.c.Row(i-1), k.c.Row(i+1), c, k.inv)
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

// fixup completes the red residuals of row i once the black half-sweep has
// passed rows i−1 … i+1.
func (k *rowOps[T]) fixup(i int) {
	if k.gather {
		gatherRow(k.r.Row(i), k.r.Row(i-1), k.r.Row(i+1), i+1, k.kx, k.ky)
	} else {
		k.residual(k.r.Row(i), i, 0)
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

// halfSweep relaxes one colour of every interior row.
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
	parallelRows(pool, k.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relax(i, colour)
		}
	})
}

// smoothResidual runs one sweep on x leaving r = b − T·x (post-sweep, zero
// boundary) and, with coarse non-nil, its full-weighting restriction — the
// V-cycle downstroke. Serial execution is the row wavefront of the file
// comment; restriction trails the fix-up by one more row, producing coarse
// row ci as soon as fine rows 2ci−1 … 2ci+1 are complete.
func (k *rowOps[T]) smoothResidual(pool *sched.Pool, coarse *grid.G[T]) {
	k.r.ZeroBoundary()
	if pool != nil {
		smoothResidualPasses(pool, *k, coarse)
		return
	}
	if coarse != nil {
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
			if coarse != nil && f >= 3 && f&1 == 1 {
				transfer.RestrictRow(coarse, k.r, f/2)
			}
		}
	}
}

// smoothResidualPasses is smoothResidual in pass order, one barrier per
// stage (by-value receiver: see halfSweepPass).
func smoothResidualPasses[T grid.Float](pool *sched.Pool, k rowOps[T], coarse *grid.G[T]) {
	n := k.n
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relaxRed(i)
		}
	})
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.relaxEmit(i, 1)
		}
	})
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.fixup(i)
		}
	})
	if coarse != nil {
		transfer.Restrict(pool, coarse, k.r)
	}
}

// residualRows returns a provider computing interior fine residual rows of
// the bound operator for transfer.RestrictResidual. The per-point expression
// is the unfused Residual kernel's.
func residualRows[T grid.Float](k rowOps[T]) func(fi int, dst []T) {
	return func(fi int, dst []T) { //mglint:allow hotalloc — kernel factory: one row-provider closure per fused cycle, not per point
		dst[0], dst[k.n-1] = 0, 0
		k.residual(dst, fi, 0)
		k.residual(dst, fi, 1)
	}
}

// finishSweepNorm completes a sweep whose red half is already done: the
// black half-sweep emitting its delta-derived residual into the norm
// accumulator, then a red norm half-pass over the final iterate. Shared by
// SweepWithNorm and the fused upstroke's FinishSmoothWithNorm so both
// produce the same bits.
func finishSweepNorm[T grid.Float](pool *sched.Pool, x, b *grid.G[T], h2, inv, omega, rFac T) float64 {
	n := x.N()
	sums := make([]float64, n) //mglint:allow hotalloc — per-call norm partials, one float64 per row; fixed-chunk deterministic reduction
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			var s float64
			for j := 1 + i%2; j < n-1; j += 2 {
				gs := (up[j] + down[j] + xr[j-1] + xr[j+1] + h2*br[j]) * 0.25
				d := gs - xr[j]
				xr[j] += omega * d
				rb := float64(rFac * d)
				s += rb * rb
			}
			sums[i] = s
		}
	})
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			s := sums[i]
			for j := 1 + (i+1)%2; j < n-1; j += 2 {
				rv := float64(br[j] - (4*xr[j]-up[j]-down[j]-xr[j-1]-xr[j+1])*inv)
				s += rv * rv
			}
			sums[i] = s
		}
	})
	return sumRows(sums, n)
}

// residualNormPar is the pool-parallel, deterministically chunked
// counterpart of ResidualNorm for the constant-coefficient Laplacian.
func residualNormPar[T grid.Float](pool *sched.Pool, x, b *grid.G[T], h T) float64 {
	n := x.N()
	inv := 1 / (h * h)
	sums := make([]float64, n) //mglint:allow hotalloc — per-call norm partials, one float64 per row; fixed-chunk deterministic reduction
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			var s float64
			for j := 1; j < n-1; j++ {
				r := float64(br[j] - (4*xr[j]-up[j]-down[j]-xr[j-1]-xr[j+1])*inv)
				s += r * r
			}
			sums[i] = s
		}
	})
	return sumRows(sums, n)
}

// --- constant-coefficient stencil (horizontal weight cx, vertical cy) ---

// finishSweepNormConst is finishSweepNorm for a constant-coefficient stencil.
func finishSweepNormConst[T grid.Float](pool *sched.Pool, x, b *grid.G[T], h2, inv, omega, cx, cy T) float64 {
	n := x.N()
	center := 2 * (cx + cy)
	invC := 1 / center
	rFac := center * (1 - omega) * inv
	sums := make([]float64, n) //mglint:allow hotalloc — per-call norm partials; fixed-chunk deterministic reduction
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			var s float64
			for j := 1 + i%2; j < n-1; j += 2 {
				gs := (cy*(up[j]+down[j]) + cx*(xr[j-1]+xr[j+1]) + h2*br[j]) * invC
				d := gs - xr[j]
				xr[j] += omega * d
				rb := float64(rFac * d)
				s += rb * rb
			}
			sums[i] = s
		}
	})
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			s := sums[i]
			for j := 1 + (i+1)%2; j < n-1; j += 2 {
				rv := float64(br[j] - (center*xr[j]-cy*(up[j]+down[j])-cx*(xr[j-1]+xr[j+1]))*inv)
				s += rv * rv
			}
			sums[i] = s
		}
	})
	return sumRows(sums, n)
}

// residualNormParConst is the parallel deterministic residual norm for a
// constant-coefficient stencil.
func residualNormParConst[T grid.Float](pool *sched.Pool, x, b *grid.G[T], h, cx, cy T) float64 {
	n := x.N()
	inv := 1 / (h * h)
	center := 2 * (cx + cy)
	sums := make([]float64, n) //mglint:allow hotalloc — per-call norm partials; fixed-chunk deterministic reduction
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			var s float64
			for j := 1; j < n-1; j++ {
				r := float64(br[j] - (center*xr[j]-cy*(up[j]+down[j])-cx*(xr[j-1]+xr[j+1]))*inv)
				s += r * r
			}
			sums[i] = s
		}
	})
	return sumRows(sums, n)
}

// --- variable-coefficient stencil (nodal field c) ---

// finishSweepNormVar is finishSweepNorm for a variable-coefficient stencil.
func finishSweepNormVar[T grid.Float](pool *sched.Pool, x, b *grid.G[T], h2, inv, omega T, c *grid.G[T]) float64 {
	n := x.N()
	oneMinus := 1 - omega
	sums := make([]float64, n) //mglint:allow hotalloc — per-call norm partials; fixed-chunk deterministic reduction
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			cr := c.Row(i)
			cu := c.Row(i - 1)
			cd := c.Row(i + 1)
			var s float64
			for j := 1 + i%2; j < n-1; j += 2 {
				cc := cr[j]
				cn := 0.5 * (cc + cu[j])
				cs := 0.5 * (cc + cd[j])
				cw := 0.5 * (cc + cr[j-1])
				ce := 0.5 * (cc + cr[j+1])
				center := cn + cs + cw + ce
				gs := (cn*up[j] + cs*down[j] + cw*xr[j-1] + ce*xr[j+1] + h2*br[j]) / center
				d := gs - xr[j]
				xr[j] += omega * d
				rb := float64(center * oneMinus * d * inv)
				s += rb * rb
			}
			sums[i] = s
		}
	})
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			cr := c.Row(i)
			cu := c.Row(i - 1)
			cd := c.Row(i + 1)
			s := sums[i]
			for j := 1 + (i+1)%2; j < n-1; j += 2 {
				cc := cr[j]
				cn := 0.5 * (cc + cu[j])
				cs := 0.5 * (cc + cd[j])
				cw := 0.5 * (cc + cr[j-1])
				ce := 0.5 * (cc + cr[j+1])
				rv := float64(br[j] - ((cn+cs+cw+ce)*xr[j]-cn*up[j]-cs*down[j]-cw*xr[j-1]-ce*xr[j+1])*inv)
				s += rv * rv
			}
			sums[i] = s
		}
	})
	return sumRows(sums, n)
}

// residualNormParVar is the parallel deterministic residual norm for a
// variable-coefficient stencil.
func residualNormParVar[T grid.Float](pool *sched.Pool, x, b *grid.G[T], h T, c *grid.G[T]) float64 {
	n := x.N()
	inv := 1 / (h * h)
	sums := make([]float64, n) //mglint:allow hotalloc — per-call norm partials; fixed-chunk deterministic reduction
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			cr := c.Row(i)
			cu := c.Row(i - 1)
			cd := c.Row(i + 1)
			var s float64
			for j := 1; j < n-1; j++ {
				cc := cr[j]
				cn := 0.5 * (cc + cu[j])
				cs := 0.5 * (cc + cd[j])
				cw := 0.5 * (cc + cr[j-1])
				ce := 0.5 * (cc + cr[j+1])
				r := float64(br[j] - ((cn+cs+cw+ce)*xr[j]-cn*up[j]-cs*down[j]-cw*xr[j-1]-ce*xr[j+1])*inv)
				s += r * r
			}
			sums[i] = s
		}
	})
	return sumRows(sums, n)
}
