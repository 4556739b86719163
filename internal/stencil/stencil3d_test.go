package stencil

import (
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// randomState3 returns random 3D x and b grids with entries in [−1, 1].
func randomState3(n int, rng *rand.Rand) (x, b *grid.Grid) {
	x, b = grid.NewDim(3, n), grid.NewDim(3, n)
	xd, bd := x.Data(), b.Data()
	for i := range xd {
		xd[i] = rng.Float64()*2 - 1
		bd[i] = rng.Float64()*2 - 1
	}
	return x, b
}

// TestApply3MatchesManualStencil: T·x, as the apply oracle states it and as
// OpResidual evaluates it against a zero right-hand side (r = −T·x), is the
// literal 7-point formula written in grid coordinates.
func TestApply3MatchesManualStencil(t *testing.T) {
	n := 9
	rng := rand.New(rand.NewSource(1))
	x, _ := randomState3(n, rng)
	h := 1.0 / float64(n-1)
	y, r := grid.NewDim(3, n), grid.NewDim(3, n)
	refApply(Poisson3D(), y, x, h)
	OpResidual(Poisson3D(), nil, r, x, grid.NewDim(3, n), h)
	inv := 1 / (h * h)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			for k := 1; k < n-1; k++ {
				want := (6*x.Row3(i, j)[k] -
					x.Row3(i-1, j)[k] - x.Row3(i+1, j)[k] -
					x.Row3(i, j-1)[k] - x.Row3(i, j+1)[k] -
					x.Row3(i, j)[k-1] - x.Row3(i, j)[k+1]) * inv
				if got := y.Row3(i, j)[k]; math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Fatalf("apply3(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
				if got := -r.Row3(i, j)[k]; math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Fatalf("−residual3(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
	if y.Row3(0, 4)[4] != 0 || r.Row3(0, 4)[4] != 0 {
		t.Fatal("apply3 or residual3 did not zero the boundary")
	}
}

// TestResidual3ConsistentWithApply3: r = b − T·x.
func TestResidual3ConsistentWithApply3(t *testing.T) {
	n := 9
	rng := rand.New(rand.NewSource(2))
	x, b := randomState3(n, rng)
	h := 1.0 / float64(n-1)
	op := Poisson3D()
	r, y := grid.NewDim(3, n), grid.NewDim(3, n)
	OpResidual(op, nil, r, x, b, h)
	refApply(op, y, x, h)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			for k := 1; k < n-1; k++ {
				want := b.Row3(i, j)[k] - y.Row3(i, j)[k]
				if got := r.Row3(i, j)[k]; math.Abs(got-want) > 1e-10*math.Max(1, math.Abs(want)) {
					t.Fatalf("residual(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
	// The norm helper summarizes the same residual.
	var sum float64
	rd := r.Data()
	for i := range rd {
		sum += rd[i] * rd[i]
	}
	if norm := OpResidualNorm(op, nil, x, b, h); math.Abs(norm-math.Sqrt(sum)) > 1e-9*math.Max(1, norm) {
		t.Fatalf("ResidualNorm %v != ‖r‖ %v", norm, math.Sqrt(sum))
	}
}

// TestSOR3Converges: iterated red-black SOR with ω_opt drives the residual
// of a small 3D problem toward zero.
func TestSOR3Converges(t *testing.T) {
	n := 17
	rng := rand.New(rand.NewSource(3))
	op := Poisson3D()
	_, b := randomState3(n, rng)
	x := grid.NewDim(3, n) // boundary data + zero interior guess
	grid.FillBoundaryRandom(x, grid.Unbiased, rng)
	h := 1.0 / float64(n-1)
	r0 := OpResidualNorm(op, nil, x, b, h)
	omega := OmegaOpt(n)
	for s := 0; s < 200; s++ {
		OpSORSweepRB(op, nil, x, b, h, omega)
	}
	if r := OpResidualNorm(op, nil, x, b, h); r > 1e-8*r0 {
		t.Fatalf("SOR stalled: residual %v of initial %v", r, r0)
	}
}

// TestSweep3ParallelMatchesSerial: at N=33, a cube the pool splits, the
// pooled kernels must be bit-identical to serial execution.
func TestSweep3ParallelMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	n := 33
	rng := rand.New(rand.NewSource(5))
	op := Poisson3D()
	x0, b := randomState3(n, rng)
	h := 1.0 / float64(n-1)

	xs, xp := x0.Clone(), x0.Clone()
	for s := 0; s < 3; s++ {
		OpSORSweepRB(op, nil, xs, b, h, 1.3)
		OpSORSweepRB(op, pool, xp, b, h, 1.3)
	}
	assertBitIdentical(t, xs, xp, "SOR3")

	rs, rp := grid.NewDim(3, n), grid.NewDim(3, n)
	OpResidual(op, nil, rs, xs, b, h)
	OpResidual(op, pool, rp, xs, b, h)
	assertBitIdentical(t, rs, rp, "Residual3")
}

// TestFamilyPoisson3DMeta covers the enum surface.
func TestFamilyPoisson3DMeta(t *testing.T) {
	if FamilyPoisson3D.String() != "poisson3d" || FamilyPoisson3D.Dim() != 3 {
		t.Fatal("FamilyPoisson3D metadata wrong")
	}
	if FamilyPoisson.Dim() != 2 || FamilyVarCoef.Dim() != 2 {
		t.Fatal("2D families must report Dim 2")
	}
	for _, alias := range []string{"poisson3d", "poisson-3d", "3d", "POISSON3D"} {
		f, err := ParseFamily(alias)
		if err != nil || f != FamilyPoisson3D {
			t.Fatalf("ParseFamily(%q) = %v, %v", alias, f, err)
		}
	}
	op, err := NewOperator(FamilyPoisson3D, 0, 33)
	if err != nil || op != Poisson3D() || op.Dim() != 3 {
		t.Fatalf("NewOperator(poisson3d) = %v, %v", op, err)
	}
	if op.At(17) != op {
		t.Fatal("constant-coefficient 3D operator must be size-independent")
	}
	if op.Coarse() != op {
		t.Fatal("constant-coefficient 3D operator must coarsen to itself")
	}
}

// TestFaceCoefsRejects3D: the 2D-only face-coefficient accessor fails
// loudly for 3D operators.
func TestFaceCoefsRejects3D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FaceCoefs accepted a 3D operator")
		}
	}()
	Poisson3D().FaceCoefs(1, 1)
}
