package stencil

import (
	"math/rand"
	"testing"

	"pbmg/internal/grid"
)

// TestStrokesAllocate pins what the two strokes of a V-cycle allocate per
// call on the serial path. OpUpstroke allocates nothing in any family: its
// interpolation buffers are rows of the scratch grid it is handed. The
// downstroke allocates nothing in 2D; in 3D it pays for the rolling window of
// transfer.RestrictSep3 (the k-compressed plane, three pre-weighted planes
// and the closures around them: seven allocations) and nothing else.
func TestStrokesAllocate(t *testing.T) {
	const n = 17
	for _, tc := range wavefrontFamilies() {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.mk(n)
			dim := op.Dim()
			rng := rand.New(rand.NewSource(17))
			x, b := randomGridOf[float64](dim, n, rng), randomGridOf[float64](dim, n, rng)
			nc := grid.Coarsen(n)
			cx, coarse := randomGridOf[float64](dim, nc, rng), filledOf[float64](dim, nc, 0)
			r, scratch := filledOf[float64](dim, n, 0), filledOf[float64](dim, n, 0)
			h, omega := 1/float64(n-1), op.OmegaSmooth()

			up := testing.AllocsPerRun(20, func() { OpUpstroke(op, nil, x, b, cx, scratch, h, omega) })
			if up != 0 {
				t.Errorf("OpUpstroke allocates %v times per call, want 0", up)
			}
			wantDown := 0.0
			if dim == 3 {
				wantDown = 7
			}
			down := testing.AllocsPerRun(20, func() { OpSmoothResidualRestrict(op, nil, coarse, x, b, r, h, omega) })
			if down > wantDown {
				t.Errorf("OpSmoothResidualRestrict allocates %v times per call, want at most %v", down, wantDown)
			}
		})
	}
}
