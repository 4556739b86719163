package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if g.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, g.At(i, j))
			}
		}
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestSetAtRoundTrip(t *testing.T) {
	g := New(4)
	g.Set(2, 3, 7.5)
	if got := g.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", got)
	}
	if got := g.Data()[2*4+3]; got != 7.5 {
		t.Fatalf("flat index = %v, want 7.5", got)
	}
}

func TestFromSliceAliases(t *testing.T) {
	data := make([]float64, 9)
	g := FromSlice(2, 3, data)
	g.Set(1, 1, 2)
	if data[4] != 2 {
		t.Fatal("FromSlice does not alias the given slice")
	}
	cube := make([]float64, 27)
	g3 := FromSlice(3, 3, cube)
	g3.Set3(1, 1, 1, 5)
	if g3.Dim() != 3 || cube[13] != 5 {
		t.Fatal("FromSlice does not alias the given slice as a 3D grid")
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 3, make([]float64, 8))
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.Set(1, 1, 1)
	c := g.Clone()
	c.Set(1, 1, 9)
	if g.At(1, 1) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCopyFromAndFill(t *testing.T) {
	a, b := New(3), New(3)
	a.Fill(4)
	b.CopyFrom(a)
	if b.At(2, 2) != 4 {
		t.Fatalf("CopyFrom: got %v, want 4", b.At(2, 2))
	}
}

func TestZeroBoundaryKeepsInterior(t *testing.T) {
	g := New(4)
	g.Fill(3)
	g.ZeroBoundary()
	if g.At(1, 1) != 3 || g.At(2, 2) != 3 {
		t.Fatal("ZeroBoundary changed interior")
	}
	for j := 0; j < 4; j++ {
		if g.At(0, j) != 0 || g.At(3, j) != 0 || g.At(j, 0) != 0 || g.At(j, 3) != 0 {
			t.Fatal("ZeroBoundary left boundary nonzero")
		}
	}
}

func TestLevelAndSizeOfLevel(t *testing.T) {
	cases := []struct{ n, k int }{
		{3, 1}, {5, 2}, {9, 3}, {17, 4}, {33, 5}, {65, 6}, {129, 7},
		{257, 8}, {513, 9}, {1025, 10}, {2049, 11}, {4097, 12},
	}
	for _, c := range cases {
		if got := Level(c.n); got != c.k {
			t.Errorf("Level(%d) = %d, want %d", c.n, got, c.k)
		}
		if got := SizeOfLevel(c.k); got != c.n {
			t.Errorf("SizeOfLevel(%d) = %d, want %d", c.k, got, c.n)
		}
	}
	for _, bad := range []int{0, 1, 2, 4, 6, 8, 10, 100} {
		if Level(bad) != -1 {
			t.Errorf("Level(%d) = %d, want -1", bad, Level(bad))
		}
	}
}

func TestCoarsen(t *testing.T) {
	if got := Coarsen(9); got != 5 {
		t.Fatalf("Coarsen(9) = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Coarsen(3) did not panic")
		}
	}()
	Coarsen(3)
}

func TestL2InteriorExcludesBoundary(t *testing.T) {
	g := New(3) // single interior point
	g.Fill(5)
	if got := L2Interior(g); got != 5 {
		t.Fatalf("L2Interior = %v, want 5", got)
	}
}

func TestL2DiffInterior(t *testing.T) {
	a, b := New(4), New(4)
	a.Set(1, 1, 3)
	b.Set(1, 1, 0)
	a.Set(2, 2, 0)
	b.Set(2, 2, 4)
	if got := L2DiffInterior(a, b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("L2DiffInterior = %v, want 5", got)
	}
}

func TestMaxAbsInterior(t *testing.T) {
	g := New(4)
	g.Set(1, 2, -9)
	g.Set(0, 0, 100) // boundary, must be ignored
	if got := MaxAbsInterior(g); got != 9 {
		t.Fatalf("MaxAbsInterior = %v, want 9", got)
	}
}

func TestDistributionString(t *testing.T) {
	if Unbiased.String() != "unbiased" || Biased.String() != "biased" ||
		PointSources.String() != "point-sources" || Distribution(99).String() != "unknown" {
		t.Fatal("Distribution.String mismatch")
	}
	for _, d := range []Distribution{Unbiased, Biased, PointSources} {
		if got, ok := ParseDistribution(d.String()); !ok || got != d {
			t.Errorf("ParseDistribution(%q) = %v, %v; want %v, true", d.String(), got, ok, d)
		}
	}
	for _, name := range []string{"x", "unknown", "Biased"} {
		if _, ok := ParseDistribution(name); ok {
			t.Errorf("ParseDistribution(%q) accepted an unknown name", name)
		}
	}
}

func TestDistributionRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		u := Unbiased.Sample(rng)
		if u < -UniformScale || u > UniformScale {
			t.Fatalf("unbiased sample %v out of range", u)
		}
		b := Biased.Sample(rng)
		if b < -UniformScale+BiasShift || b > UniformScale+BiasShift {
			t.Fatalf("biased sample %v out of range", b)
		}
	}
}

func TestBiasedMeanIsShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sum float64
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += Biased.Sample(rng)
	}
	mean := sum / trials
	if math.Abs(mean-BiasShift) > 0.05*UniformScale {
		t.Fatalf("biased mean = %v, want ≈ %v", mean, float64(BiasShift))
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a, b := New(9), New(9)
	FillRandom(a, Unbiased, rand.New(rand.NewSource(42)))
	FillRandom(b, Unbiased, rand.New(rand.NewSource(42)))
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("FillRandom not deterministic for equal seeds")
		}
	}
}

func TestFillBoundaryRandomLeavesInterior(t *testing.T) {
	g := New(5)
	FillBoundaryRandom(g, Unbiased, rand.New(rand.NewSource(3)))
	for i := 1; i < 4; i++ {
		for j := 1; j < 4; j++ {
			if g.At(i, j) != 0 {
				t.Fatal("FillBoundaryRandom wrote to interior")
			}
		}
	}
	if g.At(0, 2) == 0 && g.At(4, 2) == 0 && g.At(2, 0) == 0 {
		t.Fatal("boundary appears unfilled")
	}
}

func TestFillPointSources(t *testing.T) {
	g := New(17)
	FillRandom(g, PointSources, rand.New(rand.NewSource(5)))
	nonzero := 0
	for _, v := range g.Data() {
		if v != 0 {
			nonzero++
			if math.Abs(v) != UniformScale {
				t.Fatalf("point source magnitude %v, want ±2^32", v)
			}
		}
	}
	if nonzero == 0 || nonzero > 17 {
		t.Fatalf("point source count = %d, want in (0,17]", nonzero)
	}
	// Boundary must stay zero.
	for j := 0; j < 17; j++ {
		if g.At(0, j) != 0 || g.At(16, j) != 0 {
			t.Fatal("point source placed on boundary")
		}
	}
}

// Property: Level and SizeOfLevel are inverses for all valid levels.
func TestLevelSizeInverseProperty(t *testing.T) {
	f := func(k uint8) bool {
		lvl := int(k%29) + 1
		return Level(SizeOfLevel(lvl)) == lvl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: L2DiffInterior satisfies the triangle inequality.
func TestL2TriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(9), New(9), New(9)
		FillRandom(a, Unbiased, rng)
		FillRandom(b, Unbiased, rng)
		FillRandom(c, Unbiased, rng)
		ab := L2DiffInterior(a, b)
		bc := L2DiffInterior(b, c)
		ac := L2DiffInterior(a, c)
		return ac <= ab+bc+1e-6*(ab+bc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// HasNonFinite is a reduction over v − v, not a per-element test, so it is
// pinned at every index of grids whose lengths leave one (25 = 3·8+1) and
// three (27 = 3·8+3) entries past the unrolled blocks — first, last, every
// unroll lane, every tail slot — and against every finite extreme that a
// careless formulation would flag.
func checkHasNonFinite[T Float](t *testing.T, dim, n int, maxFinite, denormal T) {
	t.Helper()
	g := NewOf[T](dim, n)
	negZero := T(math.Copysign(0, -1))
	for _, fill := range []T{0, 1, negZero, maxFinite, -maxFinite, denormal, -denormal} {
		g.Fill(fill)
		if HasNonFinite(g) {
			t.Fatalf("%dD n=%d: grid of %v flagged as non-finite", dim, n, fill)
		}
		for idx := range g.Data() {
			for _, bad := range []T{T(math.NaN()), T(math.Inf(1)), T(math.Inf(-1))} {
				g.Data()[idx] = bad
				if !HasNonFinite(g) {
					t.Fatalf("%dD n=%d fill %v: %v at index %d of %d not flagged", dim, n, fill, bad, idx, g.Points())
				}
				g.Data()[idx] = fill
			}
		}
	}
	// Alternating extremes: no partial sum may overflow into a false alarm.
	for i := range g.Data() {
		g.Data()[i] = maxFinite
		if i%2 == 1 {
			g.Data()[i] = -maxFinite
		}
	}
	if HasNonFinite(g) {
		t.Fatalf("%dD n=%d: alternating ±max flagged as non-finite", dim, n)
	}
}

func TestHasNonFinite(t *testing.T) {
	for _, shape := range [][2]int{{2, 3}, {2, 5}, {3, 3}, {3, 5}} {
		checkHasNonFinite[float64](t, shape[0], shape[1], math.MaxFloat64, math.SmallestNonzeroFloat64)
		checkHasNonFinite[float32](t, shape[0], shape[1], math.MaxFloat32, math.SmallestNonzeroFloat32)
	}
}
