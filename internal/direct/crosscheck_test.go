package direct

import (
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// randomProblem returns random x (boundary + initial interior, which Solve
// overwrites) and b grids with entries in [−1, 1].
func randomProblem(n int, rng *rand.Rand) (x, b *grid.Grid) {
	x, b = grid.New(n), grid.New(n)
	for i := 0; i < n*n; i++ {
		x.Data()[i] = 2*rng.Float64() - 1
		b.Data()[i] = 2*rng.Float64() - 1
	}
	return x, b
}

// poissonOracle is the specialized constant-coefficient path the Poisson
// family had before the general stencil assembly took it over: the
// scaled interior matrix (diagonal 4, off-diagonals −1) and a right-hand
// side that adds each boundary neighbour unweighted. It is unfactored.
func poissonOracle(n int) *BandMatrix {
	m := n - 2
	a := NewBandMatrix(m*m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			k := i*m + j
			a.Set(k, k, 4)
			if j > 0 {
				a.Set(k, k-1, -1)
			}
			if i > 0 {
				a.Set(k, k-m, -1)
			}
		}
	}
	return a
}

// poissonOracleSolve solves with a factored poissonOracle matrix.
func poissonOracleSolve(a *BandMatrix, x, b *grid.Grid, h float64) {
	n := x.N()
	m := n - 2
	rhs := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			gi, gj := i+1, j+1
			v := h * h * b.At(gi, gj)
			if i == 0 {
				v += x.At(0, gj)
			}
			if i == m-1 {
				v += x.At(n-1, gj)
			}
			if j == 0 {
				v += x.At(gi, 0)
			}
			if j == m-1 {
				v += x.At(gi, n-1)
			}
			rhs[i*m+j] = v
		}
	}
	a.Solve(rhs)
	for i := 0; i < m; i++ {
		copy(x.Row(i + 1)[1:1+m], rhs[i*m:])
	}
}

// TestNewInteriorSolverRoutesPoisson: the factory gives the Poisson operator
// the constant interior matrix (diagonal 4, off-diagonals −1) with unit
// boundary weights, and an anisotropic operator its own face weights rather
// than Poisson's.
func TestNewInteriorSolverRoutesPoisson(t *testing.T) {
	const n = 9
	p := NewInteriorSolver(stencil.Poisson(), n)
	want := poissonOracle(n)
	if err := want.Factor(); err != nil {
		t.Fatal(err)
	}
	for k, v := range want.data {
		if math.Float64bits(p.a.data[k]) != math.Float64bits(v) {
			t.Fatalf("Poisson factor entry %d = %v, want %v", k, p.a.data[k], v)
		}
	}
	for _, w := range [][]float64{p.north, p.south, p.west, p.east} {
		for k, v := range w {
			if v != 1 {
				t.Fatalf("Poisson boundary weight %d = %v, want 1", k, v)
			}
		}
	}

	const eps = 0.5
	a := NewInteriorSolver(stencil.Anisotropic(eps), n)
	if a.op.Family() != stencil.FamilyAnisotropic {
		t.Fatalf("anisotropic solver holds a %v operator", a.op.Family())
	}
	if d := a.a.At(0, 0); d == p.a.At(0, 0) {
		t.Fatalf("anisotropic factor diagonal %v equals Poisson's", d)
	}
	for k := range a.north {
		if a.north[k] != 1 || a.south[k] != 1 || a.west[k] != eps || a.east[k] != eps {
			t.Fatalf("anisotropic boundary weights at %d = (%v, %v, %v, %v), want (1, 1, %v, %v)",
				k, a.north[k], a.south[k], a.west[k], a.east[k], eps, eps)
		}
	}
}

// TestStencilSolverMatchesPoissonSolver: on the Poisson family the general
// stencil assembly is the specialized path it replaced, bit for bit — the
// face coefficients sum to exactly 4 and weights of 1 multiply exactly — so
// the band matrix, its factor and every solve store the same bits.
func TestStencilSolverMatchesPoissonSolver(t *testing.T) {
	sizes := []int{3, 5, 7, 9, 11, 17, 33, 65, 129}
	if testing.Short() {
		sizes = sizes[:7]
	}
	for _, n := range sizes {
		want := poissonOracle(n)
		got := assembleBand(stencil.Poisson(), n)
		for k, v := range want.data {
			if math.Float64bits(got.data[k]) != math.Float64bits(v) {
				t.Fatalf("N=%d: band entry %d = %v, specialized path %v", n, k, got.data[k], v)
			}
		}
		if err := want.Factor(); err != nil {
			t.Fatal(err)
		}
		s := NewInteriorSolver(stencil.Poisson(), n)
		h := 1.0 / float64(n-1)
		rng := rand.New(rand.NewSource(int64(n)))
		for range 3 {
			x, b := randomProblem(n, rng)
			xWant := x.Clone()
			s.Solve(x, b, h)
			poissonOracleSolve(want, xWant, b, h)
			for k, v := range xWant.Data() {
				if math.Float64bits(x.Data()[k]) != math.Float64bits(v) {
					t.Fatalf("N=%d: x[%d] = %v, specialized path %v", n, k, x.Data()[k], v)
				}
			}
		}
	}
}

// TestStencilSolverSolvesOperator: for every family, the direct solution
// must zero the operator's residual (assembly cross-checked against the
// iterative kernels, which are written independently).
func TestStencilSolverSolvesOperator(t *testing.T) {
	n := 17
	h := 1.0 / float64(n-1)
	rng := rand.New(rand.NewSource(7))
	coef := grid.New(n)
	for i := 0; i < n*n; i++ {
		coef.Data()[i] = math.Exp(2 * (2*rng.Float64() - 1))
	}
	for _, op := range []*stencil.Operator{
		stencil.Anisotropic(0.01),
		stencil.Anisotropic(100),
		stencil.VarCoefOperator(coef, 0),
	} {
		x, b := randomProblem(n, rng)
		NewInteriorSolver(op, n).Solve(x, b, h)
		scale := grid.L2Interior(b) + 1
		if r := stencil.OpResidualNorm(op, nil, x, b, h); r > 1e-9*scale {
			t.Fatalf("%v: direct solution leaves residual %g (scale %g)", op, r, scale)
		}
	}
}
