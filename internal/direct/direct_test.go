package direct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// denseSolve solves A·x = b by Gaussian elimination with partial pivoting,
// the independent oracle for the band solver and for the interior solver
// (dense_test.go).
func denseSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
				p = r
			}
		}
		m[c], m[p] = m[p], m[c]
		for r := c + 1; r < n; r++ {
			f := m[r][c] / m[c][c]
			for k := c; k <= n; k++ {
				m[r][k] -= f * m[c][k]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := m[r][n]
		for k := r + 1; k < n; k++ {
			s -= m[r][k] * x[k]
		}
		x[r] = s / m[r][r]
	}
	return x
}

// randomSPDBand builds a random symmetric positive definite band matrix by
// making it strictly diagonally dominant.
func randomSPDBand(rng *rand.Rand, n, bw int) (*BandMatrix, [][]float64) {
	bm := NewBandMatrix(n, bw)
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i - bw; j <= i; j++ {
			if j < 0 {
				continue
			}
			var v float64
			if i == j {
				v = float64(2*bw+1) + rng.Float64()*4
			} else {
				v = rng.Float64()*2 - 1
			}
			bm.Set(i, j, v)
			dense[i][j] = v
			dense[j][i] = v
		}
	}
	return bm, dense
}

// At returns A(i, j), exploiting symmetry; entries outside the band are 0.
// Only tests read the matrix entry by entry.
func (m *BandMatrix) At(i, j int) float64 {
	if j > i {
		i, j = j, i
	}
	if i-j > m.bandwidth {
		return 0
	}
	return m.at(i, i-j)
}

func TestBandMatrixAtSetSymmetry(t *testing.T) {
	m := NewBandMatrix(5, 2)
	m.Set(3, 1, 7)
	if m.At(3, 1) != 7 || m.At(1, 3) != 7 {
		t.Fatal("Set/At not symmetric")
	}
	if m.At(0, 4) != 0 {
		t.Fatal("outside-band entry should read 0")
	}
}

func TestBandMatrixSetOutsideBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set outside band did not panic")
		}
	}()
	NewBandMatrix(5, 1).Set(4, 0, 1)
}

func TestBandCholeskyMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		bw := rng.Intn(n)
		bm, dense := randomSPDBand(rng, n, bw)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		want := denseSolve(dense, b)
		if err := bm.Factor(); err != nil {
			t.Fatalf("Factor failed on SPD matrix: %v", err)
		}
		got := append([]float64(nil), b...)
		bm.Solve(got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestFactorRejectsIndefinite(t *testing.T) {
	m := NewBandMatrix(3, 1)
	m.Set(0, 0, -1)
	m.Set(1, 1, 1)
	m.Set(2, 2, 1)
	if err := m.Factor(); err != ErrNotPositiveDefinite {
		t.Fatalf("Factor = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestSolveBeforeFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Solve before Factor did not panic")
		}
	}()
	NewBandMatrix(3, 1).Solve(make([]float64, 3))
}

func TestSetAfterFactorPanics(t *testing.T) {
	m := NewBandMatrix(2, 1)
	m.Set(0, 0, 4)
	m.Set(1, 1, 4)
	m.Set(1, 0, 1)
	if err := m.Factor(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set after Factor did not panic")
		}
	}()
	m.Set(0, 0, 5)
}

func TestPoissonSolverSmallest(t *testing.T) {
	// N = 3: one unknown. 4x = h²b + (4 boundary neighbours).
	s := NewInteriorSolver(stencil.Poisson(), 3)
	x, b := grid.New(3), grid.New(3)
	x.Set(0, 1, 1)
	x.Set(2, 1, 2)
	x.Set(1, 0, 3)
	x.Set(1, 2, 4)
	b.Set(1, 1, 8)
	h := 0.5
	s.Solve(x, b, h)
	want := (h*h*8 + 1 + 2 + 3 + 4) / 4
	if math.Abs(x.At(1, 1)-want) > 1e-12 {
		t.Fatalf("x = %v, want %v", x.At(1, 1), want)
	}
}

func TestPoissonSolverZeroResidual(t *testing.T) {
	for _, n := range []int{5, 9, 17, 33} {
		s := NewInteriorSolver(stencil.Poisson(), n)
		h := 1.0 / float64(n-1)
		rng := rand.New(rand.NewSource(int64(n)))
		x, b := grid.New(n), grid.New(n)
		grid.FillBoundaryRandom(x, grid.Biased, rng)
		grid.FillRandom(b, grid.Biased, rng)
		s.Solve(x, b, h)
		res := stencil.OpResidualNorm(stencil.Poisson(), nil, x, b, h)
		scale := grid.L2Interior(b) + 1
		if res > 1e-9*scale {
			t.Fatalf("n=%d: direct residual %v too large (scale %v)", n, res, scale)
		}
	}
}

func TestPoissonSolverMatchesManufactured(t *testing.T) {
	n := 33
	h := 1.0 / float64(n-1)
	u, b := grid.New(n), grid.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			xx, yy := float64(j)*h, float64(i)*h
			u.Set(i, j, math.Sin(math.Pi*xx)*math.Sin(math.Pi*yy))
			b.Set(i, j, 2*math.Pi*math.Pi*math.Sin(math.Pi*xx)*math.Sin(math.Pi*yy))
		}
	}
	x := grid.New(n)
	NewInteriorSolver(stencil.Poisson(), n).Solve(x, b, h)
	err := grid.L2DiffInterior(x, u) / grid.L2Interior(u)
	if err > 1e-3 { // discretization error O(h²)
		t.Fatalf("relative error = %v, want < 1e-3", err)
	}
}

func TestPoissonSolverSizeMismatchPanics(t *testing.T) {
	s := NewInteriorSolver(stencil.Poisson(), 5)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	s.Solve(grid.New(7), grid.New(7), 0.1)
}

// Property: for random SPD band systems, the solution returned by the band
// solver satisfies A·x ≈ b.
func TestBandSolveSatisfiesSystemProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		bw := rng.Intn(n)
		bm, dense := randomSPDBand(rng, n, bw)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		if err := bm.Factor(); err != nil {
			return false
		}
		x := append([]float64(nil), b...)
		bm.Solve(x)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += dense[i][j] * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Poisson direct solve is linear in the right-hand side.
func TestPoissonLinearityProperty(t *testing.T) {
	s := NewInteriorSolver(stencil.Poisson(), 9)
	h := 1.0 / 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b1, b2, bs := grid.New(9), grid.New(9), grid.New(9)
		grid.FillRandom(b1, grid.Unbiased, rng)
		grid.FillRandom(b2, grid.Unbiased, rng)
		for i, v := range b1.Data() {
			bs.Data()[i] = v + b2.Data()[i]
		}
		x1, x2, xs := grid.New(9), grid.New(9), grid.New(9)
		s.Solve(x1, b1, h)
		s.Solve(x2, b2, h)
		s.Solve(xs, bs, h)
		for i := range xs.Data() {
			want := x1.Data()[i] + x2.Data()[i]
			if math.Abs(xs.Data()[i]-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
