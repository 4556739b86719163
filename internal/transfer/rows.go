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
