package transfer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

func TestRestrictConstantInterior(t *testing.T) {
	fine := grid.New(9)
	fine.Fill(1)
	coarse := grid.New(5)
	Restrict(nil, coarse, fine)
	// Coarse interior points away from the boundary see sixteen 1s / 16 = 1.
	if got := coarse.At(2, 2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("center restriction = %v, want 1", got)
	}
	// Coarse boundary must be zero.
	for j := 0; j < 5; j++ {
		if coarse.At(0, j) != 0 || coarse.At(4, j) != 0 {
			t.Fatal("restriction boundary not zeroed")
		}
	}
}

func TestRestrictSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	Restrict(nil, grid.New(5), grid.New(7))
}

func TestInterpolateExactForBilinear(t *testing.T) {
	// Bilinear interpolation reproduces any function linear in x and y
	// exactly (interior; the boundary is zeroed by convention).
	nc, nf := 5, 9
	coarse := grid.New(nc)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			coarse.Set(i, j, 2*float64(i)+3*float64(j))
		}
	}
	fine := grid.New(nf)
	Interpolate(nil, fine, coarse)
	for i := 1; i < nf-1; i++ {
		for j := 1; j < nf-1; j++ {
			want := 2*(float64(i)/2) + 3*(float64(j)/2)
			if math.Abs(fine.At(i, j)-want) > 1e-12 {
				t.Fatalf("interp(%d,%d) = %v, want %v", i, j, fine.At(i, j), want)
			}
		}
	}
	for j := 0; j < nf; j++ {
		if fine.At(0, j) != 0 || fine.At(nf-1, j) != 0 {
			t.Fatal("interpolation boundary not zeroed")
		}
	}
}

func TestInterpolateSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	Interpolate(nil, grid.New(7), grid.New(5))
}

func TestInterpolateAdd(t *testing.T) {
	coarse := grid.New(3)
	coarse.Set(1, 1, 4)
	x := grid.New(5)
	x.Fill(1)
	scratch := grid.New(5)
	InterpolateAdd(nil, x, coarse, scratch)
	if got := x.At(2, 2); math.Abs(got-5) > 1e-12 {
		t.Fatalf("center after correction = %v, want 5", got)
	}
	if got := x.At(1, 1); math.Abs(got-2) > 1e-12 { // 1 + 4/4
		t.Fatalf("quarter point after correction = %v, want 2", got)
	}
	if x.At(0, 0) != 1 {
		t.Fatal("InterpolateAdd modified the boundary")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	nf := 513
	nc := (nf + 1) / 2
	fine := grid.New(nf)
	grid.FillRandom(fine, grid.Unbiased, rand.New(rand.NewSource(9)))
	cs, cp := grid.New(nc), grid.New(nc)
	Restrict(nil, cs, fine)
	Restrict(pool, cp, fine)
	for i := range cs.Data() {
		if cs.Data()[i] != cp.Data()[i] {
			t.Fatal("parallel Restrict differs from serial")
		}
	}
	coarse := grid.New(nc)
	grid.FillRandom(coarse, grid.Biased, rand.New(rand.NewSource(10)))
	fs, fp := grid.New(nf), grid.New(nf)
	Interpolate(nil, fs, coarse)
	Interpolate(pool, fp, coarse)
	for i := range fs.Data() {
		if fs.Data()[i] != fp.Data()[i] {
			t.Fatal("parallel Interpolate differs from serial")
		}
	}
}

// Property: full weighting is the scaled transpose of bilinear interpolation,
// <R f, c>_coarse = (1/4)·<f, P c>_fine for zero-boundary f and c.
func TestVariationalPairingProperty(t *testing.T) {
	dot := func(a, b *grid.Grid) float64 {
		var s float64
		for i := range a.Data() {
			s += a.Data()[i] * b.Data()[i]
		}
		return s
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nf, nc := 17, 9
		fine, coarse := grid.New(nf), grid.New(nc)
		grid.FillRandom(fine, grid.Unbiased, rng)
		grid.FillRandom(coarse, grid.Unbiased, rng)
		fine.ZeroBoundary()
		coarse.ZeroBoundary()
		rf := grid.New(nc)
		Restrict(nil, rf, fine)
		pc := grid.New(nf)
		Interpolate(nil, pc, coarse)
		l := dot(rf, coarse)
		r := 0.25 * dot(fine, pc)
		scale := math.Max(math.Abs(l), math.Abs(r))
		return math.Abs(l-r) <= 1e-9*math.Max(scale, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: restriction never amplifies the max-norm (its weights are a
// convex combination).
func TestRestrictMaxNormContractionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fine := grid.New(17)
		grid.FillRandom(fine, grid.Unbiased, rng)
		coarse := grid.New(9)
		Restrict(nil, coarse, fine)
		return grid.MaxAbsInterior(coarse) <= grid.MaxAbsInterior(fine)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interpolation never amplifies the max-norm either.
func TestInterpolateMaxNormContractionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		coarse := grid.New(9)
		grid.FillRandom(coarse, grid.Unbiased, rng)
		fine := grid.New(17)
		Interpolate(nil, fine, coarse)
		limit := 0.0
		for _, v := range coarse.Data() {
			if a := math.Abs(v); a > limit {
				limit = a
			}
		}
		return grid.MaxAbsInterior(fine) <= limit*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// RestrictCoef is pure injection at coincident nodes, boundary included.
func TestRestrictCoefInjects(t *testing.T) {
	fine := grid.New(17)
	rng := rand.New(rand.NewSource(11))
	grid.FillRandom(fine, grid.Unbiased, rng)
	coarse := grid.New(9)
	RestrictCoef(coarse, fine)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if coarse.At(i, j) != fine.At(2*i, 2*j) {
				t.Fatalf("coarse(%d,%d) = %v, want fine(%d,%d) = %v",
					i, j, coarse.At(i, j), 2*i, 2*j, fine.At(2*i, 2*j))
			}
		}
	}
}

func TestRestrictCoefSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched sizes should panic")
		}
	}()
	RestrictCoef(grid.New(9), grid.New(19))
}
