package direct

import (
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
		s := NewInteriorSolver(op, n)
		rng := rand.New(rand.NewSource(int64(n)))
		x, b := grid.New3(n), grid.New3(n)
		bd := b.Data()
		for i := range bd {
			bd[i] = rng.Float64()*2 - 1
		}
		// Random Dirichlet boundary.
		grid.FillBoundaryRandom(x, grid.Unbiased, rng)
		xd := x.Data()
		for i := range xd {
			xd[i] /= 1 << 32 // keep magnitudes O(1)
		}
		h := 1.0 / float64(n-1)
		s.Solve(x, b, h)
		if r := stencil.OpResidualNorm(op, nil, x, b, h); r > 1e-8 {
			t.Fatalf("N=%d: direct solve residual %v", n, r)
		}
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
	NewInteriorSolver(stencil.Poisson3D(), Direct3DMaxN*2-1)
}
