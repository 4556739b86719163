package refsol

import (
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/problem"
	"pbmg/internal/stencil"
)

func TestComputeDirectPath(t *testing.T) {
	p := problem.Random(33, grid.Unbiased, rand.New(rand.NewSource(1)))
	x := Compute(p, nil, nil)
	res := stencil.ResidualNorm(x, p.B, p.H)
	scale := grid.L2Interior(p.B) + 1
	if res > 1e-9*scale {
		t.Fatalf("direct-path reference residual %v too large", res)
	}
}

func TestComputeMultigridPath(t *testing.T) {
	// 257 > DirectMaxN forces the converged-multigrid path.
	p := problem.Random(257, grid.Biased, rand.New(rand.NewSource(2)))
	x := Compute(p, nil, nil)
	scale := grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1
	res := stencil.ResidualNorm(x, p.B, p.H)
	if res > 1e-10*scale {
		t.Fatalf("multigrid-path reference residual %v too large (scale %v)", res, scale)
	}
}

func TestComputeDoesNotMutateProblem(t *testing.T) {
	p := problem.Random(17, grid.Unbiased, rand.New(rand.NewSource(3)))
	before := p.Boundary.Clone()
	Compute(p, nil, nil)
	for i := range before.Data() {
		if p.Boundary.Data()[i] != before.Data()[i] {
			t.Fatal("Compute mutated the problem boundary")
		}
	}
	if p.Optimal() != nil {
		t.Fatal("Compute should not attach the solution; Attach does")
	}
}

func TestAttachIdempotent(t *testing.T) {
	p := problem.Random(17, grid.Unbiased, rand.New(rand.NewSource(4)))
	Attach(p, nil, nil)
	first := p.Optimal()
	Attach(p, nil, nil)
	if p.Optimal() != first {
		t.Fatal("Attach recomputed an existing reference")
	}
}

func TestPathsAgreeNearBoundary(t *testing.T) {
	// At N=129 both paths are viable; they must agree to high precision.
	p := problem.Random(129, grid.Unbiased, rand.New(rand.NewSource(5)))
	direct := Compute(p, nil, nil)

	// Force the multigrid path by solving the same problem at one size
	// larger is wasteful; instead check the direct solution's residual and
	// accept the direct path as truth here. The agreement of the multigrid
	// path with a direct oracle is covered at N=257 by residual; this test
	// pins the boundary constant.
	if p.N != DirectMaxN {
		t.Fatalf("expected N == DirectMaxN == %d", DirectMaxN)
	}
	res := stencil.ResidualNorm(direct, p.B, p.H)
	scale := grid.L2Interior(p.B) + 1
	if res > 1e-9*scale {
		t.Fatalf("boundary-size reference residual %v too large", res)
	}
}

// TestComputeStalledMultigridFallsBackToDirect: for strong anisotropy at
// N > DirectMaxN, point-smoothed V-cycles stall far above the reference
// floor; Compute must detect the stall and replace the bad reference with a
// direct solve rather than silently returning it.
func TestComputeStalledMultigridFallsBackToDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("factors an N=257 band matrix")
	}
	op, err := stencil.NewOperator(stencil.FamilyAnisotropic, 0.01, 257)
	if err != nil {
		t.Fatal(err)
	}
	p := problem.RandomOp(257, grid.Unbiased, rand.New(rand.NewSource(6)), op)
	x := Compute(p, nil, nil)
	scale := grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1
	res := op.ResidualNorm(nil, x, p.B, p.H)
	if res > stalledResidualFactor*relResidualTarget*scale {
		t.Fatalf("stalled reference returned: residual %v (scale %v)", res, scale)
	}
}
