package transfer

import "pbmg/internal/grid"

// RestrictRow is the one copy of the 2D full-weighting stencil: it writes the
// interior of coarse row cr from the three fine rows around it, in the
// evaluation order Restrict documents, leaving cr's ends untouched — the
// row-at-a-time form a fused downstroke drives as soon as those three rows
// are final, wherever it keeps them. Like the stencil package's row
// kernels (stencil/rows.go) it re-slices the fine rows to one shared length
// so the loop carries no index checks — mglint's bounds-check gate checks this file
// too; the coarse row advances as a slice because its index, j/2, is not one
// the compiler can bound.
func RestrictRow[T grid.Float](cr, up, mid, down []T) {
	n := len(mid) - 1
	ue, me, de := up[1:][:n], mid[1:][:n], down[1:][:n]
	up, mid, down = up[:n], mid[:n], down[:n]
	cr = cr[1:]
	for j := 2; j < n && len(cr) > 1; j += 2 {
		cr[0] = (4*mid[j] +
			2*(up[j]+down[j]+mid[j-1]+me[j]) +
			up[j-1] + ue[j] + down[j-1] + de[j]) * (1.0 / 16.0)
		cr = cr[1:]
	}
}

// InterpAddRow is the one copy of the 2D bilinear correction: it adds to
// the interior of fine row xr the interpolant of the coarse rows around it —
// up alone for a fine row on top of coarse row up (down nil), up and the
// coarse row below it for a fine row between them — leaving xr's ends
// untouched. The even planes of the 3D rule run it too. Each interpolant is
// Interpolate's expression, so the sum is bit-identical to interpolating
// into a grid and adding its interior. The loop walks one coarse interval
// at a time — its odd fine column, then the even column on its east end
// while that is interior — advancing the rows as slices, so the only
// checks left are the prologue's.
func InterpAddRow[T grid.Float](xr, up, down []T) {
	xr = xr[1:]
	if down == nil {
		for len(xr) > 2 && len(up) > 2 {
			xr[0] += lerp2(up[0], up[1])
			xr[1] += up[1]
			xr, up = xr[2:], up[1:]
		}
		if len(xr) > 0 && len(up) > 1 {
			xr[0] += lerp2(up[0], up[1])
		}
		return
	}
	for len(xr) > 2 && len(up) > 2 && len(down) > 2 {
		xr[0] += lerp4(up[0], up[1], down[0], down[1])
		xr[1] += lerp2(up[1], down[1])
		xr, up, down = xr[2:], up[1:], down[1:]
	}
	if len(xr) > 0 && len(up) > 1 && len(down) > 1 {
		xr[0] += lerp4(up[0], up[1], down[0], down[1])
	}
}

// InterpAddRow3 is InterpAddRow for a fine row on an odd plane of the 3D
// trilinear rule, between coarse planes a and b: it adds the mean of the
// two planes' bilinear interpolants, lerp2(p, q) per point — what
// interpolating the even planes and averaging them has always evaluated.
// aUp and bUp are the coarse rows the fine row sits on or below in each
// plane; aDown and bDown the rows below them, nil for a fine row on top of
// a coarse row.
func InterpAddRow3[T grid.Float](xr, aUp, aDown, bUp, bDown []T) {
	xr = xr[1:]
	if aDown == nil {
		for len(xr) > 2 && len(aUp) > 2 && len(bUp) > 2 {
			xr[0] += lerp2(lerp2(aUp[0], aUp[1]), lerp2(bUp[0], bUp[1]))
			xr[1] += lerp2(aUp[1], bUp[1])
			xr, aUp, bUp = xr[2:], aUp[1:], bUp[1:]
		}
		if len(xr) > 0 && len(aUp) > 1 && len(bUp) > 1 {
			xr[0] += lerp2(lerp2(aUp[0], aUp[1]), lerp2(bUp[0], bUp[1]))
		}
		return
	}
	for len(xr) > 2 && len(aUp) > 2 && len(aDown) > 2 && len(bUp) > 2 && len(bDown) > 2 {
		xr[0] += lerp2(lerp4(aUp[0], aUp[1], aDown[0], aDown[1]), lerp4(bUp[0], bUp[1], bDown[0], bDown[1]))
		xr[1] += lerp2(lerp2(aUp[1], aDown[1]), lerp2(bUp[1], bDown[1]))
		xr, aUp, aDown, bUp, bDown = xr[2:], aUp[1:], aDown[1:], bUp[1:], bDown[1:]
	}
	if len(xr) > 0 && len(aUp) > 1 && len(aDown) > 1 && len(bUp) > 1 && len(bDown) > 1 {
		xr[0] += lerp2(lerp4(aUp[0], aUp[1], aDown[0], aDown[1]), lerp4(bUp[0], bUp[1], bDown[0], bDown[1]))
	}
}

// lerp2 and lerp4 are Interpolate's 2- and 4-point interpolants, operands
// in its order. The conversion rounds each before the add it feeds, as a
// materialized interpolant is rounded, so no platform fuses the two.
func lerp2[T grid.Float](a, b T) T       { return T(0.5 * (a + b)) }
func lerp4[T grid.Float](a, b, c, d T) T { return T(0.25 * (a + b + c + d)) }
