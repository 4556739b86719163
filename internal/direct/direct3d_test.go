package direct

import (
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// TestStencilSolver3DSolvesExactly: solve a random 3D problem directly,
// then verify T·x = b on the interior through the 7-point residual, which
// accounts for the boundary neighbours.
func TestStencilSolver3DSolvesExactly(t *testing.T) {
	for _, n := range []int{5, 9, 17} {
		op := stencil.Poisson3D()
		s := NewStencilSolver(op, n)
		if s.N() != n {
			t.Fatalf("N() = %d", s.N())
		}
		rng := rand.New(rand.NewSource(int64(n)))
		x, b := grid.New3(n), grid.New3(n)
		bd := b.Data()
		for i := range bd {
			bd[i] = rng.Float64()*2 - 1
		}
		// Random Dirichlet boundary.
		grid.FillBoundaryRandom(x, grid.Unbiased, rng)
		x.Scale(1.0 / (1 << 32)) // keep magnitudes O(1)
		h := 1.0 / float64(n-1)
		s.Solve(x, b, h)
		if r := stencil.OpResidualNorm(op, nil, x, b, h); r > 1e-8 {
			t.Fatalf("N=%d: direct solve residual %v", n, r)
		}
	}
}

// TestInteriorSolverRoutes3D: the factory routes 3D operators through the
// general band assembly, and 2D Poisson stays on the specialized path.
func TestInteriorSolverRoutes3D(t *testing.T) {
	if _, ok := NewInteriorSolver(stencil.Poisson3D(), 9).(*StencilSolver); !ok {
		t.Fatal("3D operator not routed to StencilSolver")
	}
	if _, ok := NewInteriorSolver(nil, 9).(*PoissonSolver); !ok {
		t.Fatal("nil operator not routed to PoissonSolver")
	}
}

// TestDirect3DSizeCap: factorizations beyond Direct3DMaxN must fail loudly
// instead of silently exhausting memory.
func TestDirect3DSizeCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized 3D factorization did not panic")
		}
	}()
	NewStencilSolver(stencil.Poisson3D(), Direct3DMaxN*2-1)
}

// TestCacheSeparates2DAnd3D: the factor cache must never hand a 2D
// factorization to a 3D request of the same side, or vice versa.
func TestCacheSeparates2DAnd3D(t *testing.T) {
	var c Cache
	s2 := c.GetOp(stencil.Poisson(), 9)
	s3 := c.GetOp(stencil.Poisson3D(), 9)
	if s2 == s3 {
		t.Fatal("cache collided 2D and 3D solvers")
	}
	if _, ok := s2.(*PoissonSolver); !ok {
		t.Fatal("2D entry lost its specialized type")
	}
	if _, ok := s3.(*StencilSolver); !ok {
		t.Fatal("3D entry lost its general type")
	}
	if c.GetOp(stencil.Poisson3D(), 9) != s3 {
		t.Fatal("3D factorization not memoized")
	}
}

// TestStencilSolver3DFlops: the reported cost estimates scale with the 3D
// band shape (m³ unknowns, bandwidth m²).
func TestStencilSolver3DFlops(t *testing.T) {
	s := NewStencilSolver(stencil.Poisson3D(), 9)
	m := 7.0
	if got, want := s.FactorFlops(), m*m*m*(m*m)*(m*m); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("FactorFlops = %v, want ≈ %v", got, want)
	}
}
