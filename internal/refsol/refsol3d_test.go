package refsol

import (
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/problem"
	"pbmg/internal/stencil"
)

// TestCompute3DDirect: at N ≤ DirectMaxN3D the 3D reference comes from the
// band factorization and satisfies the operator equation to rounding.
func TestCompute3DDirect(t *testing.T) {
	n := 17
	rng := rand.New(rand.NewSource(1))
	p := problem.RandomOp(n, grid.Unbiased, rng, stencil.Poisson3D())
	x := Compute(p, nil, nil)
	if x.Dim() != 3 {
		t.Fatalf("reference is %dD", x.Dim())
	}
	scale := grid.L2Interior(p.B) + 1
	if r := stencil.OpResidualNorm(stencil.Poisson3D(), nil, x, p.B, p.H); r > 1e-9*scale {
		t.Fatalf("direct 3D reference residual %v (scale %v)", r, scale)
	}
}

// TestCompute3DConvergedMultigrid: beyond the 3D direct cap the reference
// switches to converged full multigrid and still reaches the residual floor.
func TestCompute3DConvergedMultigrid(t *testing.T) {
	n := 33 // > DirectMaxN3D
	rng := rand.New(rand.NewSource(2))
	p := problem.RandomOp(n, grid.Unbiased, rng, stencil.Poisson3D())
	x := Compute(p, nil, nil)
	scale := grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1
	if r := stencil.OpResidualNorm(stencil.Poisson3D(), nil, x, p.B, p.H); r > 100*relResidualTarget*scale {
		t.Fatalf("multigrid 3D reference residual %v above floor (scale %v)", r, scale)
	}
}
