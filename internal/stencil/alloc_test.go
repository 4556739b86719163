package stencil

import (
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// strokeKernels are the cycle's kernel entry points, and the unfused residual,
// bound to one set of grids.
func strokeKernels(op *Operator, p *sched.Pool, n int) []struct {
	name string
	run  func()
} {
	dim, nc := op.Dim(), grid.Coarsen(n)
	rng := rand.New(rand.NewSource(17))
	x, b := randomGridOf[float64](dim, n, rng), randomGridOf[float64](dim, n, rng)
	cx, coarse := randomGridOf[float64](dim, nc, rng), filledOf[float64](dim, nc, 0)
	r, scratch := filledOf[float64](dim, n, 0), filledOf[float64](dim, n, 0)
	h, omega := 1/float64(n-1), op.OmegaSmooth()
	return []struct {
		name string
		run  func()
	}{
		{"OpDownstroke", func() { OpDownstroke(op, p, coarse, x, b, r, scratch, h, omega) }},
		{"OpResidualRestrict", func() { OpResidualRestrict(op, p, coarse, x, b, r, scratch, h) }},
		{"OpUpstroke", func() { OpUpstroke(op, p, x, b, cx, scratch, h, omega) }},
		{"OpSORSweepRB", func() { OpSORSweepRB(op, p, x, b, h, omega) }},
		{"OpResidualNorm", func() { OpResidualNorm(op, p, x, b, h) }},
		{"OpResidual", func() { OpResidual(op, p, r, x, b, h) }},
	}
}

// TestStrokesAllocate pins what the cycle's kernels allocate per call on the
// serial drivers: nothing, in any family. Every buffer they need beyond the
// grids they are bound to — OpUpstroke's interpolation rows, the rolling
// window of the 3D restriction, the residual units OpResidualRestrict passes
// through — is carved from the scratch grids they are handed. The serial
// drivers are what runs without a pool and — the second leg — with a pool the
// grid is too small for (bindRows leaves it unbound): the level sizes where a
// cycle spends most of its calls. The pooled passes, on a grid the pool does
// split, are exempt and not measured here: each pass costs sched one region
// and one task closure per chunk, and the norm pass a slice of per-unit
// partial sums — 8 to 52 small objects a call at N=129 (2D) and N=33 (3D),
// none of them grid storage (the pooled 3D restriction carves its window from
// each chunk's own planes of scratch).
func TestStrokesAllocate(t *testing.T) {
	const n = 17
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, tc := range wavefrontFamilies() {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.mk(n)
			g := filledOf[float64](op.Dim(), n, 0)
			if k := bindRows(op, pool, g, g, g, 1, 1); k.pool != nil {
				t.Fatalf("a pool is bound at n=%d: this leg is meant to take the serial drivers", n)
			}
			for _, leg := range []struct {
				name string
				pool *sched.Pool
			}{{"no pool", nil}, {"pool too small to split: serial drivers", pool}} {
				for _, k := range strokeKernels(op, leg.pool, n) {
					k.run() // warm-up
					if allocs := testing.AllocsPerRun(20, k.run); allocs != 0 {
						t.Errorf("%s allocates %v times per call (%s), want 0", k.name, allocs, leg.name)
					}
				}
			}
		})
	}
}
