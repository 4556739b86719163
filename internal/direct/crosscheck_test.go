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

// TestStencilSolverMatchesPoissonSolver: for the Poisson operator, the
// general-stencil band assembly must agree with the specialized
// constant-coefficient path to near machine precision — both factor the same
// SPD matrix, so only rounding in assembly order can differ.
func TestStencilSolverMatchesPoissonSolver(t *testing.T) {
	for _, n := range []int{5, 9, 17, 33} {
		h := 1.0 / float64(n-1)
		rng := rand.New(rand.NewSource(int64(n)))
		xRef, b := randomProblem(n, rng)
		xGen := xRef.Clone()

		NewPoissonSolver(n).Solve(xRef, b, h)
		NewStencilSolver(stencil.Poisson(), n).Solve(xGen, b, h)

		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := math.Abs(xRef.At(i, j) - xGen.At(i, j))
				if d > 1e-12*math.Max(1, math.Abs(xRef.At(i, j))) {
					t.Fatalf("n=%d: paths differ at (%d,%d) by %g", n, i, j, d)
				}
			}
		}
	}
}

// TestNewInteriorSolverRoutesPoisson: the factory must keep the fast
// constant-coefficient path for the Poisson family.
func TestNewInteriorSolverRoutesPoisson(t *testing.T) {
	if _, ok := NewInteriorSolver(nil, 9).(*PoissonSolver); !ok {
		t.Fatal("nil operator should route to PoissonSolver")
	}
	if _, ok := NewInteriorSolver(stencil.Poisson(), 9).(*PoissonSolver); !ok {
		t.Fatal("Poisson operator should route to PoissonSolver")
	}
	if _, ok := NewInteriorSolver(stencil.Anisotropic(0.5), 9).(*StencilSolver); !ok {
		t.Fatal("anisotropic operator should route to StencilSolver")
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
		NewStencilSolver(op, n).Solve(x, b, h)
		scale := grid.L2Interior(b) + 1
		if r := stencil.OpResidualNorm(op, nil, x, b, h); r > 1e-9*scale {
			t.Fatalf("%v: direct solution leaves residual %g (scale %g)", op, r, scale)
		}
	}
}

// TestCacheKeysByOperator: one cache must hold independent factorizations
// per operator at the same size, sharing the Poisson entry between nil and
// the Poisson operator.
func TestCacheKeysByOperator(t *testing.T) {
	var c Cache
	p1 := c.Get(9)
	p2 := c.GetOp(stencil.Poisson(), 9)
	if p1 != p2 {
		t.Fatal("nil and Poisson operator should share one factorization")
	}
	aniso := stencil.Anisotropic(0.25)
	a1 := c.GetOp(aniso, 9)
	if _, ok := a1.(*StencilSolver); !ok {
		t.Fatal("anisotropic entry should be a StencilSolver")
	}
	if a2 := c.GetOp(aniso, 9); a1 != a2 {
		t.Fatal("same operator and size should hit the cache")
	}
	if len(c.Sizes()) != 1 || c.Sizes()[0] != 9 {
		t.Fatalf("Sizes() = %v, want [9]", c.Sizes())
	}
}
