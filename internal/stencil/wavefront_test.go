package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// The serial drivers of fused.go/upstroke.go reorder whole units (rows in 2D,
// planes in 3D), never the operands of a point, so everything they produce
// must equal — bit for bit, not to a tolerance — what the barrier-separated
// pass order produces from the same row kernels, for any worker count. This
// suite pins that over the sizes where the pipeline is longer than the grid
// (N=5 has three interior units, the downstroke four stages), both fix-up
// paths (ω = 1 and 1+5e-4 sit inside gatherMinOneMinusOmega), every family
// and both precisions, on states whose Dirichlet boundary is not zero. The
// sweep itself is pinned to the point-by-point oracle refSweep
// (oracle_test.go), so the row kernels cannot drift from the expressions the
// strided kernels evaluated.

var wavefrontOmegas = []float64{0.8, 1, 1 + 5e-4, 1.15}

func wavefrontFamilies() []fusedCase {
	sizes2, sizes3 := []int{5, 9, 17, 33, 65, 129}, []int{5, 9, 17, 33}
	return []fusedCase{
		{"poisson", func(int) *Operator { return Poisson() }, sizes2, 2},
		{"aniso-0.01", func(int) *Operator { return Anisotropic(0.01) }, sizes2, 2},
		{"varcoef-2", func(n int) *Operator { return VarCoefOperator(CoefField(n, 2), 2) }, sizes2, 2},
		{"poisson3d", func(int) *Operator { return Poisson3D() }, sizes3, 3},
	}
}

func randomGridOf[T grid.Float](dim, n int, rng *rand.Rand) *grid.G[T] {
	g := grid.NewOf[T](dim, n)
	for i := range g.Data() {
		g.Data()[i] = T(2*rng.Float64() - 1)
	}
	return g
}

func filledOf[T grid.Float](dim, n int, v T) *grid.G[T] {
	g := grid.NewOf[T](dim, n)
	g.Fill(v)
	return g
}

func assertSameBits[T grid.Float](t *testing.T, got, want *grid.G[T], what string) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	for k := range wd {
		if math.Float64bits(float64(gd[k])) != math.Float64bits(float64(wd[k])) {
			t.Fatalf("%s: entry %d (row %d, col %d) = %v, want %v", what, k, k/want.N(), k%want.N(), gd[k], wd[k]) // row counts through the planes in 3D
		}
	}
}

func checkWavefront[T grid.Float](t *testing.T, op *Operator, n int, omega64 float64, pools []*sched.Pool) {
	rng := rand.New(rand.NewSource(int64(n)*1000 + int64(omega64*1e4)))
	nc := grid.Coarsen(n)
	h, omega := T(1/float64(n-1)), T(omega64)
	dim := op.Dim()
	x0, b := randomGridOf[T](dim, n, rng), randomGridOf[T](dim, n, rng)
	cx := randomGridOf[T](dim, nc, rng)
	const junk = 7 // r, coarse and scratch start dirty: every entry must be produced

	// Sweep: serial wavefront == the point-by-point reference == any pool.
	want := x0.Clone()
	refSweep(op, want, b, h, omega)
	sweep := func(pool *sched.Pool) *grid.G[T] {
		x := x0.Clone()
		OpSORSweepRB(op, pool, x, b, h, omega)
		return x
	}
	assertSameBits(t, sweep(nil), want, "sweep x: wavefront vs reference")

	// Downstroke: serial wavefront == pass order from the same row kernels.
	down := func(pool *sched.Pool) (x, r, coarse *grid.G[T]) {
		x, r, coarse = x0.Clone(), filledOf[T](dim, n, junk), filledOf[T](dim, nc, junk)
		OpSmoothResidualRestrict(op, pool, coarse, x, b, r, h, omega)
		return
	}
	xs, rs, cs := down(nil)
	// The production entry carves its 3D restriction window from a dirty
	// scratch grid instead of allocating it: same bits, serial or pooled.
	downScratch := func(pool *sched.Pool, w string) {
		x, r, coarse := x0.Clone(), filledOf[T](dim, n, junk), filledOf[T](dim, nc, junk)
		OpDownstroke(op, pool, coarse, x, b, r, filledOf[T](dim, n, junk), h, omega)
		assertSameBits(t, x, xs, "OpDownstroke x vs OpSmoothResidualRestrict, "+w)
		assertSameBits(t, r, rs, "OpDownstroke r vs OpSmoothResidualRestrict, "+w)
		assertSameBits(t, coarse, cs, "OpDownstroke coarse vs OpSmoothResidualRestrict, "+w)
	}
	downScratch(nil, "serial")
	xp, rp, cp := x0.Clone(), filledOf[T](dim, n, junk), filledOf[T](dim, nc, junk)
	k := bindRows(op, nil, xp, b, rp, h, omega)
	k.bindGather()
	if wantGather := op.family != FamilyVarCoef && math.Abs(1-omega64) >= gatherMinOneMinusOmega; k.gather != wantGather {
		t.Fatalf("gather = %v, want %v", k.gather, wantGather)
	}
	rp.ZeroBoundary()
	smoothResidualPasses(k, cp, filledOf[T](dim, n, junk))
	assertSameBits(t, xs, want, "downstroke x: wavefront vs reference sweep")
	assertSameBits(t, xs, xp, "downstroke x: wavefront vs passes")
	assertSameBits(t, rs, rp, "downstroke r: wavefront vs passes")
	assertSameBits(t, cs, cp, "downstroke coarse: wavefront vs passes")

	// Upstroke: the one-traversal entry == the two-call pair.
	up := func(pool *sched.Pool) *grid.G[T] {
		x := x0.Clone()
		OpUpstroke(op, pool, x, b, cx, h, omega)
		return x
	}
	xu := up(nil)
	pair := x0.Clone()
	OpInterpolateCorrectSmooth(op, nil, pair, b, cx, h, omega)
	OpFinishSmooth(op, nil, pair, b, h, omega)
	assertSameBits(t, xu, pair, "upstroke x: one traversal vs InterpolateCorrectSmooth+FinishSmooth")

	for i, pool := range pools {
		w := fmt.Sprintf(" (serial vs pool %d)", i)
		assertSameBits(t, sweep(pool), want, "sweep x"+w)
		x, r, c := down(pool)
		assertSameBits(t, x, xs, "downstroke x"+w)
		assertSameBits(t, r, rs, "downstroke r"+w)
		assertSameBits(t, c, cs, "downstroke coarse"+w)
		downScratch(pool, fmt.Sprintf("pool %d", i))
		assertSameBits(t, up(pool), xu, "upstroke x"+w)
		x = x0.Clone()
		OpInterpolateCorrectSmooth(op, pool, x, b, cx, h, omega)
		OpFinishSmooth(op, pool, x, b, h, omega)
		assertSameBits(t, x, xu, "upstroke pair x"+w)
	}
}

func TestWavefrontBitIdentical(t *testing.T) {
	var pools []*sched.Pool
	for _, w := range []int{1, 2, 3} {
		p := sched.NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	for _, tc := range wavefrontFamilies() {
		for _, n := range tc.ns {
			op := tc.mk(n)
			for _, omega := range wavefrontOmegas {
				t.Run(fmt.Sprintf("%s/n%d/omega%g/f64", tc.name, n, omega), func(t *testing.T) {
					checkWavefront[float64](t, op, n, omega, pools)
				})
				t.Run(fmt.Sprintf("%s/n%d/omega%g/f32", tc.name, n, omega), func(t *testing.T) {
					checkWavefront[float32](t, op, n, omega, pools)
				})
			}
		}
	}
}
