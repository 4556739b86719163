package mg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/problem"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// End-to-end lockdown of the color-split SOR path at the size its gate
// targets (3D N≥65 with ≥8 sweeps): Workspace.SOR through the split layout
// must produce the same bits as the NoFuse strided oracle, for serial and
// pooled execution alike.

func TestSORSplitEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		op   *stencil.Operator
		n    int
	}{
		{"poisson3d-65", stencil.Poisson3D(), 65},
	}
	const sweeps = 12
	for _, tc := range cases {
		if !stencil.SplitWorthwhile(tc.op.Dim(), tc.n, sweeps) {
			t.Fatalf("%s: case is not gate-eligible; fix the test sizes", tc.name)
		}
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers-%d", tc.name, workers), func(t *testing.T) {
				var pool *sched.Pool
				if workers > 1 {
					pool = sched.NewPool(workers)
					defer pool.Close()
				}
				rng := rand.New(rand.NewSource(321))
				p := problem.RandomOp(tc.n, grid.Unbiased, rng, tc.op)
				omega := stencil.OmegaOpt(tc.n)

				run := func(noFuse bool) *grid.Grid {
					ws := NewWorkspace(pool)
					ws.Op = tc.op
					ws.NoFuse = noFuse
					x := p.NewState()
					ws.SOR(x, p.B, omega, sweeps, nil)
					return x
				}
				want, got := run(true), run(false)
				wd, gd := want.Data(), got.Data()
				for k := range wd {
					if math.Float64bits(wd[k]) != math.Float64bits(gd[k]) {
						t.Fatalf("split SOR differs from strided at %d: %v vs %v", k, wd[k], gd[k])
					}
				}
			})
		}
	}
}
