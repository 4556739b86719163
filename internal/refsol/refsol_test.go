package refsol

import (
	"math/rand"
	"testing"

	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/stencil"
)

// TestComputeSmallGridConverges: small grids take the multigrid route too.
// At N = 33 the reference reaches the residual floor and factors only the
// 3×3 coarsest level, never the band matrix of its own size.
func TestComputeSmallGridConverges(t *testing.T) {
	p := problem.RandomOp(33, grid.Unbiased, rand.New(rand.NewSource(1)), stencil.Poisson())
	cache := &direct.Cache{}
	x := Compute(p, nil, cache)
	scale := grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1
	if res := stencil.OpResidualNorm(stencil.Poisson(), nil, x, p.B, p.H); res > relResidualTarget*scale {
		t.Fatalf("N=33 reference residual %v above the target (scale %v)", res, scale)
	}
	// One factorization, and a lookup at N = 3 reuses it: the only side
	// factored is the coarsest.
	if cache.GetOp(stencil.Poisson(), 3); cache.Len() != 1 || cache.Factorizations() != 1 {
		t.Fatalf("N=33 reference factored %d matrices (%d entries), want only the coarsest N = 3", cache.Factorizations(), cache.Len())
	}
}

func TestComputeMultigridPath(t *testing.T) {
	p := problem.RandomOp(257, grid.Biased, rand.New(rand.NewSource(2)), stencil.Poisson())
	x := Compute(p, nil, nil)
	scale := grid.L2Interior(p.B) + grid.MaxAbsInterior(p.Boundary) + 1
	res := stencil.OpResidualNorm(stencil.Poisson(), nil, x, p.B, p.H)
	if res > 1e-10*scale {
		t.Fatalf("multigrid-path reference residual %v too large (scale %v)", res, scale)
	}
}

func TestComputeDoesNotMutateProblem(t *testing.T) {
	p := problem.RandomOp(17, grid.Unbiased, rand.New(rand.NewSource(3)), stencil.Poisson())
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
	p := problem.RandomOp(17, grid.Unbiased, rand.New(rand.NewSource(4)), stencil.Poisson())
	Attach(p, nil, nil)
	first := p.Optimal()
	Attach(p, nil, nil)
	if p.Optimal() != first {
		t.Fatal("Attach recomputed an existing reference")
	}
}

// TestPathsAgreeAtEverySize is the differential test behind the single
// route: at every size up to guardMaxN, for the 2D families whose references
// converge there, and for poisson3d up to N = 17, Compute takes the
// multigrid route (converge never hands over, and Compute's answer is its
// answer bit for bit), and that reference agrees with the band-Cholesky
// solve of the same problem to within 1e-11 of the initial error ‖x₀ − x‖.
// The tuner's finest accuracy level, 10⁹, grades errors of 1e-9 of it, so
// the route moves no accuracy reading by more than 1 %.
func TestPathsAgreeAtEverySize(t *testing.T) {
	const bound = 1e-11
	type tc struct {
		family stencil.Family
		eps    float64
		sizes  []int
	}
	sizes2D := []int{5, 9, 17, 33, 65, guardMaxN}
	for _, c := range []tc{
		{stencil.FamilyPoisson, 0, sizes2D},
		{stencil.FamilyVarCoef, 2, sizes2D},
		{stencil.FamilyAnisotropic, 0.1, sizes2D},
		{stencil.FamilyPoisson3D, 0, []int{5, 9, 17}},
	} {
		for _, n := range c.sizes {
			op, err := stencil.NewOperator(c.family, c.eps, n)
			if err != nil {
				t.Fatal(err)
			}
			p := problem.RandomOp(n, grid.Unbiased, rand.New(rand.NewSource(5)), op)
			ws := mg.NewWorkspace(nil, op)
			band := p.NewState()
			ws.SolveDirect(band, p.B, nil)
			multi := p.NewState()
			if converge(ws, p, multi, op.Dim() == 2) {
				t.Fatalf("%v N=%d: the multigrid reference gave way to the band solve", op, n)
			}
			got := Compute(p, nil, nil)
			for i, v := range multi.Data() {
				if got.Data()[i] != v {
					t.Fatalf("%v N=%d: Compute differs from the multigrid reference at %d: %v != %v", op, n, i, got.Data()[i], v)
				}
			}
			initErr := grid.L2DiffInterior(p.Boundary, band)
			if d := grid.L2DiffInterior(multi, band); d > bound*initErr {
				t.Errorf("%v N=%d: multigrid and band references differ by %.3g of the initial error, want ≤ %g",
					op, n, d/initErr, bound)
			}
		}
	}
}

// TestGuardSendsStalledOperatorToBand: aniso ε = 0.01 contracts by ≈ 0.8 per
// V-cycle and would need ≈ 600 of them at N = 129, more than the band
// factorization costs. At every guarded size the pace check must fail
// within a tenth of its cycle budget (counted here by replaying converge's
// loop), and Compute must answer with the band solve, bit for bit.
func TestGuardSendsStalledOperatorToBand(t *testing.T) {
	for _, n := range []int{33, guardMaxN} {
		op, err := stencil.NewOperator(stencil.FamilyAnisotropic, 0.01, n)
		if err != nil {
			t.Fatal(err)
		}
		p := problem.RandomOp(n, grid.Unbiased, rand.New(rand.NewSource(7)), op)
		ws := mg.NewWorkspace(nil, op)

		x, target := p.NewState(), residualTarget(p)
		norm := func() float64 { return stencil.OpResidualNorm(op, nil, x, p.B, p.H) }
		ws.RefFullMG(x, p.B, nil)
		res := norm()
		for c := 0; ; c++ {
			if c == guardCycles/10 {
				t.Fatalf("N=%d: still on pace after %d cycles, want the guard to give way sooner", n, c)
			}
			prev := res
			ws.RefVCycle(x, p.B, nil)
			res = norm()
			if !onPace(res, prev, target, guardCycles-c-1) {
				break
			}
		}

		got := Compute(p, nil, nil)
		want := p.NewState()
		ws.SolveDirect(want, p.B, nil)
		for i, v := range want.Data() {
			if got.Data()[i] != v {
				t.Fatalf("N=%d: guarded reference differs from the band solve at %d: %v != %v", n, i, got.Data()[i], v)
			}
		}
	}
}

// TestComputeStalledMultigridFallsBackToDirect: for strong anisotropy at
// N = 257, past the guarded sizes, point-smoothed V-cycles stall far above
// the reference floor; Compute must detect the stall and replace the bad reference with a
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
	res := stencil.OpResidualNorm(op, nil, x, p.B, p.H)
	if res > stalledResidualFactor*relResidualTarget*scale {
		t.Fatalf("stalled reference returned: residual %v (scale %v)", res, scale)
	}
}
