// Row kernels (2D). Every fused cycle kernel of this package — the SOR
// sweep, the downstroke, the upstroke, serial or pooled — is one of two
// drivers (fused.go, upstroke.go) calling the loops in this file, one grid
// row at a time. A row kernel takes whole rows of equal length n as plain
// slices and a colour offset c ∈ {0, 1}: it visits columns 1+c, 3+c, … ≤ n−2.
//
// The contract that lets the compiler drop every bounds check from the
// loops: rows are re-sliced to one shared length in the prologue (east is
// the row shifted by one, so xr[j+1] becomes east[j]), the loop bound is
// that length, and every index is the induction variable or j−1. The only
// checks left are the prologue's slice checks, once per row;
// `mgbench -exp bce` fails the build if an index check reappears here.
//
// The arithmetic of each family is the expression the strided kernels have
// always evaluated, operand for operand, so every caller's results are
// bit-identical whichever driver runs the rows and in whatever order
// independent rows are visited.
package stencil

import "pbmg/internal/grid"

// relaxRow is one colour of one row of the red-black SOR sweep for the
// Laplacian.
func relaxRow[T grid.Float](xr, up, down, br []T, c int, h2, omega T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, br = xr[:n], up[:n], down[:n], br[:n]
	for j := 1 + c&1; j < n; j += 2 {
		gs := (up[j] + down[j] + xr[j-1] + east[j] + h2*br[j]) * 0.25
		xr[j] += omega * (gs - xr[j])
	}
}

// relaxEmitRow is relaxRow that also stores each visited point's residual
// as implied by its update delta, rr[j] = rFac·(gs − x_old) with
// rFac = 4·(1−ω)/h²: exact for the state the point's Gauss-Seidel average
// read. For a black point that is the post-sweep state; for a red point it
// is the mid-sweep state, which gatherRow completes.
func relaxEmitRow[T grid.Float](xr, up, down, br, rr []T, c int, h2, omega, rFac T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, br, rr = xr[:n], up[:n], down[:n], br[:n], rr[:n]
	for j := 1 + c&1; j < n; j += 2 {
		gs := (up[j] + down[j] + xr[j-1] + east[j] + h2*br[j]) * 0.25
		d := gs - xr[j]
		xr[j] += omega * d
		rr[j] = rFac * d
	}
}

// residualRow evaluates rr = b − T·x at one colour of one row directly from
// the iterate — the unfused Residual kernel's expression.
func residualRow[T grid.Float](rr, xr, up, down, br []T, c int, inv T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	rr, xr, up, down, br = rr[:n], xr[:n], up[:n], down[:n], br[:n]
	for j := 1 + c&1; j < n; j += 2 {
		rr[j] = br[j] - (4*xr[j]-up[j]-down[j]-xr[j-1]-east[j])*inv
	}
}

// gatherRow completes the red residuals of one row of a residual grid the
// two emitting half-sweeps filled, reading only that grid: a red entry holds
// its mid-sweep residual, which the black neighbours' later moves shifted by
// κ-weighted sums of their stored residuals — r_red += ky·(up+down) +
// kx·(west+east) with k• = ω·c•/(C·(1−ω)), the face weight and the delta
// encoding folded together.
func gatherRow[T grid.Float](rr, up, down []T, c int, kx, ky T) {
	n := len(rr) - 1
	east := rr[1:][:n]
	rr, up, down = rr[:n], up[:n], down[:n]
	for j := 1 + c&1; j < n; j += 2 {
		rr[j] += ky*(up[j]+down[j]) + kx*(rr[j-1]+east[j])
	}
}

// addRow adds src to dst over the interior columns 1 … n−2.
func addRow[T grid.Float](dst, src []T) {
	n := len(dst) - 1
	dst, src = dst[:n], src[:n]
	for j := 1; j < n; j++ {
		dst[j] += src[j]
	}
}

// --- constant-coefficient stencil (horizontal weight cx, vertical cy) ---

func relaxRowConst[T grid.Float](xr, up, down, br []T, c int, h2, omega, cx, cy, invC T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, br = xr[:n], up[:n], down[:n], br[:n]
	for j := 1 + c&1; j < n; j += 2 {
		gs := (cy*(up[j]+down[j]) + cx*(xr[j-1]+east[j]) + h2*br[j]) * invC
		xr[j] += omega * (gs - xr[j])
	}
}

// relaxEmitRowConst is relaxEmitRow with rFac = C·(1−ω)/h², C = 2·(cx+cy).
func relaxEmitRowConst[T grid.Float](xr, up, down, br, rr []T, c int, h2, omega, cx, cy, invC, rFac T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, br, rr = xr[:n], up[:n], down[:n], br[:n], rr[:n]
	for j := 1 + c&1; j < n; j += 2 {
		gs := (cy*(up[j]+down[j]) + cx*(xr[j-1]+east[j]) + h2*br[j]) * invC
		d := gs - xr[j]
		xr[j] += omega * d
		rr[j] = rFac * d
	}
}

func residualRowConst[T grid.Float](rr, xr, up, down, br []T, c int, inv, cx, cy, center T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	rr, xr, up, down, br = rr[:n], xr[:n], up[:n], down[:n], br[:n]
	for j := 1 + c&1; j < n; j += 2 {
		rr[j] = br[j] - (center*xr[j]-cy*(up[j]+down[j])-cx*(xr[j-1]+east[j]))*inv
	}
}

// --- variable-coefficient stencil (nodal field rows cr, cu, cd) ---

func relaxRowVar[T grid.Float](xr, up, down, br, cr, cu, cd []T, c int, h2, omega T) {
	n := len(xr) - 1
	east, ceast := xr[1:][:n], cr[1:][:n]
	xr, up, down, br = xr[:n], up[:n], down[:n], br[:n]
	cr, cu, cd = cr[:n], cu[:n], cd[:n]
	for j := 1 + c&1; j < n; j += 2 {
		cc := cr[j]
		cn := 0.5 * (cc + cu[j])
		cs := 0.5 * (cc + cd[j])
		cw := 0.5 * (cc + cr[j-1])
		ce := 0.5 * (cc + ceast[j])
		gs := (cn*up[j] + cs*down[j] + cw*xr[j-1] + ce*east[j] + h2*br[j]) / (cn + cs + cw + ce)
		xr[j] += omega * (gs - xr[j])
	}
}

// relaxEmitRowVar is relaxEmitRow for a variable-coefficient stencil: the
// residual factor is per point, center·(1−ω)/h².
func relaxEmitRowVar[T grid.Float](xr, up, down, br, rr, cr, cu, cd []T, c int, h2, omega, inv T) {
	n := len(xr) - 1
	east, ceast := xr[1:][:n], cr[1:][:n]
	xr, up, down, br, rr = xr[:n], up[:n], down[:n], br[:n], rr[:n]
	cr, cu, cd = cr[:n], cu[:n], cd[:n]
	oneMinus := 1 - omega
	for j := 1 + c&1; j < n; j += 2 {
		cc := cr[j]
		cn := 0.5 * (cc + cu[j])
		cs := 0.5 * (cc + cd[j])
		cw := 0.5 * (cc + cr[j-1])
		ce := 0.5 * (cc + ceast[j])
		center := cn + cs + cw + ce
		gs := (cn*up[j] + cs*down[j] + cw*xr[j-1] + ce*east[j] + h2*br[j]) / center
		d := gs - xr[j]
		xr[j] += omega * d
		rr[j] = center * oneMinus * d * inv
	}
}

func residualRowVar[T grid.Float](rr, xr, up, down, br, cr, cu, cd []T, c int, inv T) {
	n := len(xr) - 1
	east, ceast := xr[1:][:n], cr[1:][:n]
	rr, xr, up, down, br = rr[:n], xr[:n], up[:n], down[:n], br[:n]
	cr, cu, cd = cr[:n], cu[:n], cd[:n]
	for j := 1 + c&1; j < n; j += 2 {
		cc := cr[j]
		cn := 0.5 * (cc + cu[j])
		cs := 0.5 * (cc + cd[j])
		cw := 0.5 * (cc + cr[j-1])
		ce := 0.5 * (cc + ceast[j])
		rr[j] = br[j] - ((cn+cs+cw+ce)*xr[j]-cn*up[j]-cs*down[j]-cw*xr[j-1]-ce*east[j])*inv
	}
}
