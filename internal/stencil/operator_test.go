package stencil

import (
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
)

// randomField returns a positive nodal coefficient field with entries
// exp(u), u uniform in [−sigma, sigma].
func randomField(n int, sigma float64, rng *rand.Rand) *grid.Grid {
	c := grid.New(n)
	for i := 0; i < n; i++ {
		row := c.Row(i)
		for j := 0; j < n; j++ {
			row[j] = math.Exp(sigma * (2*rng.Float64() - 1))
		}
	}
	return c
}

// randomState returns random x and b grids with entries in [−1, 1].
func randomState(n int, rng *rand.Rand) (x, b *grid.Grid) {
	x, b = grid.New(n), grid.New(n)
	for i := 0; i < n*n; i++ {
		x.Data()[i] = 2*rng.Float64() - 1
		b.Data()[i] = 2*rng.Float64() - 1
	}
	return x, b
}

func TestParseFamily(t *testing.T) {
	for _, f := range []Family{FamilyPoisson, FamilyAnisotropic, FamilyVarCoef} {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFamily(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFamily("helmholtz"); err == nil {
		t.Fatal("ParseFamily accepted an unknown family")
	}
}

// TestAnisoUnitEpsMatchesPoisson: with ε = 1 the anisotropic stencil is the
// Laplacian, so every kernel must agree with the Poisson fast path up to
// floating-point association differences.
func TestAnisoUnitEpsMatchesPoisson(t *testing.T) {
	n := 33
	rng := rand.New(rand.NewSource(1))
	x0, b := randomState(n, rng)
	h := 1.0 / float64(n-1)
	ops := []*Operator{Poisson(), Anisotropic(1)}

	states := make([]*grid.Grid, 2)
	for k, op := range ops {
		x := x0.Clone()
		for s := 0; s < 5; s++ {
			OpSORSweepRB(op, nil, x, b, h, 1.3)
		}
		states[k] = x
	}
	assertClose(t, states[0], states[1], 1e-12, "SOR aniso(1) vs poisson")

	r0, r1 := grid.New(n), grid.New(n)
	OpResidual(ops[0], nil, r0, x0, b, h)
	OpResidual(ops[1], nil, r1, x0, b, h)
	assertClose(t, r0, r1, 1e-9, "Residual aniso(1) vs poisson")
}

// TestVarCoefUnitFieldMatchesPoisson: with c ≡ 1 the variable-coefficient
// operator is the Laplacian.
func TestVarCoefUnitFieldMatchesPoisson(t *testing.T) {
	n := 17
	one := grid.New(n)
	one.Fill(1)
	op := VarCoefOperator(one, 0)
	rng := rand.New(rand.NewSource(2))
	x0, b := randomState(n, rng)
	h := 1.0 / float64(n-1)

	xp, xv := x0.Clone(), x0.Clone()
	for s := 0; s < 5; s++ {
		OpSORSweepRB(Poisson(), nil, xp, b, h, 1.15)
		OpSORSweepRB(op, nil, xv, b, h, 1.15)
	}
	assertClose(t, xp, xv, 1e-12, "SOR varcoef(1) vs poisson")

	rp, rv := grid.New(n), grid.New(n)
	OpResidual(Poisson(), nil, rp, x0, b, h)
	OpResidual(op, nil, rv, x0, b, h)
	assertClose(t, rp, rv, 1e-9, "Residual varcoef(1) vs poisson")

	if d := math.Abs(OpResidualNorm(Poisson(), nil, x0, b, h) - OpResidualNorm(op, nil, x0, b, h)); d > 1e-9 {
		t.Fatalf("ResidualNorm differs by %g", d)
	}
}

// TestCoarsenIsReevaluation: injecting the analytic coefficient field to a
// coarse grid equals building the field at the coarse size directly —
// multigrid nodes coincide across levels.
func TestCoarsenIsReevaluation(t *testing.T) {
	op, err := NewOperator(FamilyVarCoef, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	coarse := op.Coarse()
	if coarse.Coef().N() != 17 {
		t.Fatalf("coarse field size %d, want 17", coarse.Coef().N())
	}
	want := CoefField(17, 2)
	assertClose(t, coarse.Coef(), want, 1e-14, "injected vs re-evaluated field")
	// Memoized: a second call returns the identical operator.
	if op.Coarse() != coarse {
		t.Fatal("Coarse is not memoized")
	}
	// At walks the hierarchy and bottoms out.
	if op.At(5).Coef().N() != 5 {
		t.Fatal("At(5) did not resolve")
	}
	if Poisson().At(65) != Poisson() {
		t.Fatal("constant operator At should be identity")
	}
}

func TestAtPanicsOnFinerSize(t *testing.T) {
	op, _ := NewOperator(FamilyVarCoef, 1, 17)
	defer func() {
		if recover() == nil {
			t.Fatal("At(33) on a 17-point operator should panic")
		}
	}()
	op.At(33)
}

// TestFaceCoefsSymmetric: the assembled operator is symmetric — each face
// is seen identically from both sides.
func TestFaceCoefsSymmetric(t *testing.T) {
	n := 9
	rng := rand.New(rand.NewSource(3))
	op := VarCoefOperator(randomField(n, 2, rng), 0)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-2; j++ {
			_, _, _, ce := op.FaceCoefs(i, j)
			_, _, cw, _ := op.FaceCoefs(i, j+1)
			if ce != cw {
				t.Fatalf("east(%d,%d)=%g != west(%d,%d)=%g", i, j, ce, i, j+1, cw)
			}
		}
	}
	for i := 1; i < n-2; i++ {
		for j := 1; j < n-1; j++ {
			_, cs, _, _ := op.FaceCoefs(i, j)
			cn, _, _, _ := op.FaceCoefs(i+1, j)
			if cs != cn {
				t.Fatalf("south(%d,%d)=%g != north(%d,%d)=%g", i, j, cs, i+1, j, cn)
			}
		}
	}
}

// TestOmegaSmoothHeuristics: the per-family in-cycle weights follow their
// documented shapes.
func TestOmegaSmoothHeuristics(t *testing.T) {
	if w := Poisson().OmegaSmooth(); w != OmegaRecurse {
		t.Fatalf("poisson smooth weight %g, want %g", w, OmegaRecurse)
	}
	if w := Anisotropic(1).OmegaSmooth(); math.Abs(w-1.15) > 1e-12 {
		t.Fatalf("aniso(1) smooth weight %g, want 1.15", w)
	}
	strong := Anisotropic(0.01).OmegaSmooth()
	if strong >= Anisotropic(0.5).OmegaSmooth() || strong < 1 {
		t.Fatalf("aniso smooth weight should decay toward 1 with anisotropy, got %g", strong)
	}
	// ε and 1/ε are equally anisotropic.
	if a, b := Anisotropic(0.1).OmegaSmooth(), Anisotropic(10).OmegaSmooth(); math.Abs(a-b) > 1e-12 {
		t.Fatalf("aniso weight not symmetric in ε: %g vs %g", a, b)
	}
}

// TestSORReducesResidualAllFamilies: a handful of sweeps must reduce the
// residual for every family (convergence sanity for the new kernels).
func TestSORReducesResidualAllFamilies(t *testing.T) {
	n := 33
	rng := rand.New(rand.NewSource(4))
	for _, op := range []*Operator{
		Poisson(),
		Anisotropic(0.01),
		Anisotropic(100),
		VarCoefOperator(randomField(n, 2, rng), 0),
	} {
		x, b := randomState(n, rng)
		h := 1.0 / float64(n-1)
		before := OpResidualNorm(op, nil, x, b, h)
		for s := 0; s < 50; s++ {
			OpSORSweepRB(op, nil, x, b, h, op.OmegaSmooth())
		}
		after := OpResidualNorm(op, nil, x, b, h)
		if after >= before*0.9 {
			t.Fatalf("%v: residual %g -> %g after 50 sweeps", op, before, after)
		}
	}
}

func assertClose(t *testing.T, a, b *grid.Grid, tol float64, what string) {
	t.Helper()
	n := a.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			av, bv := a.At(i, j), b.At(i, j)
			scale := math.Max(1, math.Max(math.Abs(av), math.Abs(bv)))
			if math.Abs(av-bv) > tol*scale {
				t.Fatalf("%s: mismatch at (%d,%d): %v vs %v", what, i, j, av, bv)
			}
		}
	}
}
