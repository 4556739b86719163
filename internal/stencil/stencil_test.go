package stencil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// manufactured builds the problem −∇²u = f with u = sin(πx)sin(πy) on the
// unit square, for which f = 2π²·sin(πx)sin(πy) and u = 0 on the boundary.
func manufactured(n int) (u, b *grid.Grid, h float64) {
	h = 1.0 / float64(n-1)
	u, b = grid.New(n), grid.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(j)*h, float64(i)*h
			u.Set(i, j, math.Sin(math.Pi*x)*math.Sin(math.Pi*y))
			b.Set(i, j, 2*math.Pi*math.Pi*math.Sin(math.Pi*x)*math.Sin(math.Pi*y))
		}
	}
	return u, b, h
}

func TestOmegaOpt(t *testing.T) {
	// For h → 0, ω* → 2; for n = 3 (h = 1/2), ω* = 2/(1+sin(π/2)) = 1.
	if got := OmegaOpt(3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("OmegaOpt(3) = %v, want 1", got)
	}
	w65 := OmegaOpt(65)
	if w65 <= 1.8 || w65 >= 2 {
		t.Fatalf("OmegaOpt(65) = %v, want in (1.8, 2)", w65)
	}
	if OmegaOpt(129) <= w65 {
		t.Fatal("OmegaOpt should increase toward 2 with finer grids")
	}
}

func TestSORConvergesToManufacturedSolution(t *testing.T) {
	n := 33
	u, b, h := manufactured(n)
	x := grid.New(n)
	omega := OmegaOpt(n)
	for it := 0; it < 2000; it++ {
		OpSORSweepRB(Poisson(), nil, x, b, h, omega)
	}
	// x should match u up to discretization error O(h²).
	err := grid.L2DiffInterior(x, u) / grid.L2Interior(u)
	if err > 1e-3 {
		t.Fatalf("relative error after SOR = %v, want < 1e-3", err)
	}
}

func TestSORReducesResidualMonotonicallyEventually(t *testing.T) {
	n := 17
	_, b, h := manufactured(n)
	x := grid.New(n)
	r0 := OpResidualNorm(Poisson(), nil, x, b, h)
	for it := 0; it < 50; it++ {
		OpSORSweepRB(Poisson(), nil, x, b, h, OmegaRecurse)
	}
	r1 := OpResidualNorm(Poisson(), nil, x, b, h)
	if r1 >= r0 {
		t.Fatalf("residual did not decrease: %v -> %v", r0, r1)
	}
}

func TestResidualOfDiscreteSolutionIsZero(t *testing.T) {
	// Solve a tiny system nearly exactly with many sweeps, then the residual
	// must be near zero.
	n := 9
	_, b, h := manufactured(n)
	x := grid.New(n)
	for it := 0; it < 4000; it++ {
		OpSORSweepRB(Poisson(), nil, x, b, h, 1.5)
	}
	r := grid.New(n)
	OpResidual(Poisson(), nil, r, x, b, h)
	if got := grid.L2Interior(r); got > 1e-8*grid.L2Interior(b) {
		t.Fatalf("residual of converged solution = %v, want ~0", got)
	}
}

func TestResidualMatchesApply(t *testing.T) {
	n := 17
	rng := rand.New(rand.NewSource(2))
	x, b := grid.New(n), grid.New(n)
	grid.FillRandom(x, grid.Unbiased, rng)
	grid.FillRandom(b, grid.Unbiased, rng)
	h := 1.0 / float64(n-1)
	r, y := grid.New(n), grid.New(n)
	OpResidual(Poisson(), nil, r, x, b, h)
	refApply(Poisson(), y, x, h)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			want := b.At(i, j) - y.At(i, j)
			if math.Abs(r.At(i, j)-want) > 1e-6*math.Max(1, math.Abs(want)) {
				t.Fatalf("residual mismatch at (%d,%d): %v vs %v", i, j, r.At(i, j), want)
			}
		}
	}
}

func TestResidualNormMatchesResidualGrid(t *testing.T) {
	n := 33
	rng := rand.New(rand.NewSource(4))
	x, b := grid.New(n), grid.New(n)
	grid.FillRandom(x, grid.Biased, rng)
	grid.FillRandom(b, grid.Biased, rng)
	h := 1.0 / float64(n-1)
	r := grid.New(n)
	OpResidual(Poisson(), nil, r, x, b, h)
	want := grid.L2Interior(r)
	got := OpResidualNorm(Poisson(), nil, x, b, h)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ResidualNorm = %v, want %v", got, want)
	}
}

func TestParallelMatchesSerialExactly(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	n := 257 // above the parallel threshold
	rng := rand.New(rand.NewSource(11))
	b := grid.New(n)
	grid.FillRandom(b, grid.Unbiased, rng)
	h := 1.0 / float64(n-1)

	xs, xp := grid.New(n), grid.New(n)
	grid.FillBoundaryRandom(xs, grid.Unbiased, rand.New(rand.NewSource(12)))
	xp.CopyFrom(xs)
	for it := 0; it < 3; it++ {
		OpSORSweepRB(Poisson(), nil, xs, b, h, 1.15)
		OpSORSweepRB(Poisson(), pool, xp, b, h, 1.15)
	}
	for i := range xs.Data() {
		if xs.Data()[i] != xp.Data()[i] {
			t.Fatal("parallel SOR differs from serial SOR")
		}
	}

	rs, rp := grid.New(n), grid.New(n)
	OpResidual(Poisson(), nil, rs, xs, b, h)
	OpResidual(Poisson(), pool, rp, xp, b, h)
	for i := range rs.Data() {
		if rs.Data()[i] != rp.Data()[i] {
			t.Fatal("parallel residual differs from serial residual")
		}
	}
}

// applyOf writes y = T·x through the production residual kernel: against a
// zero right-hand side the residual is −T·x, exactly.
func applyOf(op *Operator, y, x *grid.Grid, h float64) {
	OpResidual(op, nil, y, x, grid.NewDim(x.Dim(), x.N()), h)
	yd := y.Data()
	for i := range yd {
		yd[i] = -yd[i]
	}
}

// Property: the discrete operator T is symmetric: <Tx, y> = <x, Ty> for
// grids with zero boundary.
func TestOperatorSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 17
		h := 1.0 / float64(n-1)
		x, y := grid.New(n), grid.New(n)
		grid.FillRandom(x, grid.Unbiased, rng)
		grid.FillRandom(y, grid.Unbiased, rng)
		x.ZeroBoundary()
		y.ZeroBoundary()
		tx, ty := grid.New(n), grid.New(n)
		applyOf(Poisson(), tx, x, h)
		applyOf(Poisson(), ty, y, h)
		dot := func(a, b *grid.Grid) float64 {
			var s float64
			for i := range a.Data() {
				s += a.Data()[i] * b.Data()[i]
			}
			return s
		}
		l, r := dot(tx, y), dot(x, ty)
		scale := math.Max(math.Abs(l), math.Abs(r))
		return math.Abs(l-r) <= 1e-9*math.Max(scale, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: T is positive definite: <Tx, x> > 0 for nonzero zero-boundary x.
func TestOperatorPositiveDefiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 9
		h := 1.0 / float64(n-1)
		x := grid.New(n)
		grid.FillRandom(x, grid.Unbiased, rng)
		x.ZeroBoundary()
		tx := grid.New(n)
		applyOf(Poisson(), tx, x, h)
		var s float64
		for i := range x.Data() {
			s += x.Data()[i] * tx.Data()[i]
		}
		return s > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: one SOR sweep leaves the boundary untouched.
func TestSweepPreservesBoundaryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 17
		h := 1.0 / float64(n-1)
		x, b := grid.New(n), grid.New(n)
		grid.FillRandom(x, grid.Biased, rng)
		grid.FillRandom(b, grid.Biased, rng)
		before := x.Clone()
		OpSORSweepRB(Poisson(), nil, x, b, h, 1.3)
		for j := 0; j < n; j++ {
			if x.At(0, j) != before.At(0, j) || x.At(n-1, j) != before.At(n-1, j) ||
				x.At(j, 0) != before.At(j, 0) || x.At(j, n-1) != before.At(j, n-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
