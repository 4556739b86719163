package refsol

import (
	"math/rand"
	"testing"

	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/problem"
	"pbmg/internal/stencil"
)

// TestCompute3DSmallGridConverges: a 3D reference at N = 17 takes the
// multigrid route, reaches the residual floor, and factors only the 3×3×3
// coarsest level, not the 6.1 MB band matrix of its own size.
func TestCompute3DSmallGridConverges(t *testing.T) {
	n := 17
	rng := rand.New(rand.NewSource(1))
	p := problem.RandomOp(n, grid.Unbiased, rng, stencil.Poisson3D())
	cache := &direct.Cache{}
	x := Compute(p, nil, cache)
	if x.Dim() != 3 {
		t.Fatalf("reference is %dD", x.Dim())
	}
	scale := grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1
	if r := stencil.OpResidualNorm(stencil.Poisson3D(), nil, x, p.B, p.H); r > relResidualTarget*scale {
		t.Fatalf("N=17 3D reference residual %v above the target (scale %v)", r, scale)
	}
	// One factorization, and a lookup at N = 3 reuses it: the only side
	// factored is the coarsest.
	if cache.GetOp(stencil.Poisson3D(), 3); cache.Len() != 1 || cache.Factorizations() != 1 {
		t.Fatalf("N=17 3D reference factored %d matrices (%d entries), want only the coarsest N = 3", cache.Factorizations(), cache.Len())
	}
}

// TestCompute3DConvergedMultigrid: at N = 33, where the band matrix would
// take ≈ 230 MB, the converged multigrid reference still reaches the
// residual floor.
func TestCompute3DConvergedMultigrid(t *testing.T) {
	n := 33
	rng := rand.New(rand.NewSource(2))
	p := problem.RandomOp(n, grid.Unbiased, rng, stencil.Poisson3D())
	x := Compute(p, nil, nil)
	scale := grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1
	if r := stencil.OpResidualNorm(stencil.Poisson3D(), nil, x, p.B, p.H); r > 100*relResidualTarget*scale {
		t.Fatalf("multigrid 3D reference residual %v above floor (scale %v)", r, scale)
	}
}
