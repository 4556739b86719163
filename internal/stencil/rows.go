// Row kernels, 2D and 3D. Every kernel of this package — the SOR sweep,
// the residual and its norm, the downstroke, the upstroke,
// serial or pooled, in any family — is a driver of fused.go or upstroke.go
// calling the loops in this file, one grid row at a time. A row kernel takes
// whole rows of equal length n as plain slices and, unless it visits every
// interior column, a colour offset c of which only the parity counts: it
// visits columns 1+c&1, 3+c&1, … ≤ n−2.
//
// The contract that lets the compiler drop every bounds check from the
// loops: rows are re-sliced to one shared length in the prologue (east is
// the row shifted by one, so xr[j+1] becomes east[j]), the loop bound is
// that length, and every index is the induction variable or j−1. The only
// checks left are the prologue's slice checks, once per row;
// mglint's bounds-check gate fails the build if an index check reappears here.
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

// everyPoint in place of a colour offset makes a residual row kernel visit
// every interior column, at unit stride: a whole-grid residual is bound by
// that loop.
const everyPoint = -1

// residualRow evaluates rr = b − T·x at one colour of one row, or at
// everyPoint, directly from the iterate.
func residualRow[T grid.Float](rr, xr, up, down, br []T, c int, inv T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	rr, xr, up, down, br = rr[:n], xr[:n], up[:n], down[:n], br[:n]
	if c < 0 {
		for j := 1; j < n; j++ {
			rr[j] = br[j] - (4*xr[j]-up[j]-down[j]-xr[j-1]-east[j])*inv
		}
		return
	}
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
	if c < 0 {
		for j := 1; j < n; j++ {
			rr[j] = br[j] - (center*xr[j]-cy*(up[j]+down[j])-cx*(xr[j-1]+east[j]))*inv
		}
		return
	}
	for j := 1 + c&1; j < n; j += 2 {
		rr[j] = br[j] - (center*xr[j]-cy*(up[j]+down[j])-cx*(xr[j-1]+east[j]))*inv
	}
}

// --- variable-coefficient stencil (nodal field rows cr, cu, cd) ---
//
// A face coefficient is the mean of its two nodes. The kernels below work
// with the sums — twice the faces — and fold the 2 into a loop-invariant
// factor instead (2·h2 beside a numerator that a doubled centre divides,
// inv/2 or (1−ω)/2 beside a doubled T·x): scaling by two commutes with
// rounding, so every result keeps its bits and each point loses four
// multiplications.

func relaxRowVar[T grid.Float](xr, up, down, br, cr, cu, cd []T, c int, h2, omega T) {
	n := len(xr) - 1
	east, ceast := xr[1:][:n], cr[1:][:n]
	xr, up, down, br = xr[:n], up[:n], down[:n], br[:n]
	cr, cu, cd = cr[:n], cu[:n], cd[:n]
	h2 *= 2
	for j := 1 + c&1; j < n; j += 2 {
		cc := cr[j]
		cn := cc + cu[j]
		cs := cc + cd[j]
		cw := cc + cr[j-1]
		ce := cc + ceast[j]
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
	h2 *= 2
	oneMinus := 0.5 * (1 - omega)
	for j := 1 + c&1; j < n; j += 2 {
		cc := cr[j]
		cn := cc + cu[j]
		cs := cc + cd[j]
		cw := cc + cr[j-1]
		ce := cc + ceast[j]
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
	inv *= 0.5
	if c < 0 {
		for j := 1; j < n; j++ {
			cc := cr[j]
			cn := cc + cu[j]
			cs := cc + cd[j]
			cw := cc + cr[j-1]
			ce := cc + ceast[j]
			rr[j] = br[j] - ((cn+cs+cw+ce)*xr[j]-cn*up[j]-cs*down[j]-cw*xr[j-1]-ce*east[j])*inv
		}
		return
	}
	for j := 1 + c&1; j < n; j += 2 {
		cc := cr[j]
		cn := cc + cu[j]
		cs := cc + cd[j]
		cw := cc + cr[j-1]
		ce := cc + ceast[j]
		rr[j] = br[j] - ((cn+cs+cw+ce)*xr[j]-cn*up[j]-cs*down[j]-cw*xr[j-1]-ce*east[j])*inv
	}
}

// --- 7-point stencil (3D): a row has two more neighbour rows, north and
// south in its own plane beside up and down in the planes around it ---

func relaxRow3[T grid.Float](xr, up, down, north, south, br []T, c int, h2, omega T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, north, south, br = xr[:n], up[:n], down[:n], north[:n], south[:n], br[:n]
	for k := 1 + c&1; k < n; k += 2 {
		gs := (up[k] + down[k] + north[k] + south[k] + xr[k-1] + east[k] + h2*br[k]) * (1.0 / 6.0)
		xr[k] += omega * (gs - xr[k])
	}
}

// relaxEmitRow3 is relaxEmitRow with rFac = 6·(1−ω)/h².
func relaxEmitRow3[T grid.Float](xr, up, down, north, south, br, rr []T, c int, h2, omega, rFac T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, north, south, br, rr = xr[:n], up[:n], down[:n], north[:n], south[:n], br[:n], rr[:n]
	for k := 1 + c&1; k < n; k += 2 {
		gs := (up[k] + down[k] + north[k] + south[k] + xr[k-1] + east[k] + h2*br[k]) * (1.0 / 6.0)
		d := gs - xr[k]
		xr[k] += omega * d
		rr[k] = rFac * d
	}
}

func residualRow3[T grid.Float](rr, xr, up, down, north, south, br []T, c int, inv T) {
	n := len(xr) - 1
	east := xr[1:][:n]
	rr, xr, up, down, north, south, br = rr[:n], xr[:n], up[:n], down[:n], north[:n], south[:n], br[:n]
	if c < 0 {
		for k := 1; k < n; k++ {
			rr[k] = br[k] - (6*xr[k]-up[k]-down[k]-north[k]-south[k]-xr[k-1]-east[k])*inv
		}
		return
	}
	for k := 1 + c&1; k < n; k += 2 {
		rr[k] = br[k] - (6*xr[k]-up[k]-down[k]-north[k]-south[k]-xr[k-1]-east[k])*inv
	}
}

// gatherRow3 is gatherRow over the six black neighbours of a red point, all
// with the one weight κ = ω/(6·(1−ω)).
func gatherRow3[T grid.Float](rr, up, down, north, south []T, c int, kappa T) {
	n := len(rr) - 1
	east := rr[1:][:n]
	rr, up, down, north, south = rr[:n], up[:n], down[:n], north[:n], south[:n]
	for k := 1 + c&1; k < n; k += 2 {
		rr[k] += kappa * (up[k] + down[k] + north[k] + south[k] + rr[k-1] + east[k])
	}
}

// --- norm reduction: sums of squared residuals at every interior column,
// accumulated in float64 whatever T is, one term per column in column order ---

// residualSqRow is residualRow at everyPoint reducing instead of storing: it
// adds the row's squared residuals to s.
func residualSqRow[T grid.Float](xr, up, down, br []T, inv T, s float64) float64 {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, br = xr[:n], up[:n], down[:n], br[:n]
	for j := 1; j < n; j++ {
		r := float64(br[j] - (4*xr[j]-up[j]-down[j]-xr[j-1]-east[j])*inv)
		s += r * r
	}
	return s
}

func residualSqRowConst[T grid.Float](xr, up, down, br []T, inv, cx, cy, center T, s float64) float64 {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, br = xr[:n], up[:n], down[:n], br[:n]
	for j := 1; j < n; j++ {
		r := float64(br[j] - (center*xr[j]-cy*(up[j]+down[j])-cx*(xr[j-1]+east[j]))*inv)
		s += r * r
	}
	return s
}

func residualSqRowVar[T grid.Float](xr, up, down, br, cr, cu, cd []T, inv T, s float64) float64 {
	n := len(xr) - 1
	east, ceast := xr[1:][:n], cr[1:][:n]
	xr, up, down, br = xr[:n], up[:n], down[:n], br[:n]
	cr, cu, cd = cr[:n], cu[:n], cd[:n]
	inv *= 0.5
	for j := 1; j < n; j++ {
		cc := cr[j]
		cn := cc + cu[j]
		cs := cc + cd[j]
		cw := cc + cr[j-1]
		ce := cc + ceast[j]
		r := float64(br[j] - ((cn+cs+cw+ce)*xr[j]-cn*up[j]-cs*down[j]-cw*xr[j-1]-ce*east[j])*inv)
		s += r * r
	}
	return s
}

func residualSqRow3[T grid.Float](xr, up, down, north, south, br []T, inv T, s float64) float64 {
	n := len(xr) - 1
	east := xr[1:][:n]
	xr, up, down, north, south, br = xr[:n], up[:n], down[:n], north[:n], south[:n], br[:n]
	for k := 1; k < n; k++ {
		r := float64(br[k] - (6*xr[k]-up[k]-down[k]-north[k]-south[k]-xr[k-1]-east[k])*inv)
		s += r * r
	}
	return s
}
