package transfer

import (
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// fillTrilinear fills g (3D) with the trilinear function
// f(x,y,z) = 1 + 2x + 3y + 4z sampled on the unit cube.
func fillTrilinear(g *grid.Grid) {
	n := g.N()
	h := 1.0 / float64(n-1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				g.Set3(i, j, k, 1+2*float64(i)*h+3*float64(j)*h+4*float64(k)*h)
			}
		}
	}
}

// TestRestrict3DExactOnTrilinear: full weighting is an average over a
// symmetric stencil, so it reproduces trilinear functions exactly at
// interior coarse points.
func TestRestrict3DExactOnTrilinear(t *testing.T) {
	nf, nc := 9, 5
	fine := grid.New3(nf)
	fillTrilinear(fine)
	coarse := grid.New3(nc)
	Restrict(nil, coarse, fine)
	for i := 1; i < nc-1; i++ {
		for j := 1; j < nc-1; j++ {
			for k := 1; k < nc-1; k++ {
				want := fine.Row3(2*i, 2*j)[2*k]
				if got := coarse.Row3(i, j)[k]; math.Abs(got-want) > 1e-12 {
					t.Fatalf("coarse(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
	// Coarse boundary is zeroed (residual convention).
	if coarse.Row3(0, 2)[2] != 0 {
		t.Fatal("coarse boundary not zeroed")
	}
}

// TestInterpolate3DExactOnTrilinear: trilinear interpolation reproduces
// trilinear functions exactly at interior fine points.
func TestInterpolate3DExactOnTrilinear(t *testing.T) {
	nf, nc := 9, 5
	coarse := grid.New3(nc)
	fillTrilinear(coarse)
	// Rescale the coarse samples: coarse point i sits at 2i·h_f, so filling
	// with the coarse grid's own spacing matches the fine function exactly.
	fine := grid.New3(nf)
	Interpolate(nil, fine, coarse)
	want := grid.New3(nf)
	fillTrilinear(want)
	// Coarse spacing is twice fine spacing; fillTrilinear(coarse) sampled
	// f at the same physical points, so interpolation must agree with
	// fillTrilinear(fine) on the interior.
	for i := 1; i < nf-1; i++ {
		for j := 1; j < nf-1; j++ {
			for k := 1; k < nf-1; k++ {
				if got, w := fine.Row3(i, j)[k], want.Row3(i, j)[k]; math.Abs(got-w) > 1e-12 {
					t.Fatalf("fine(%d,%d,%d) = %v, want %v", i, j, k, got, w)
				}
			}
		}
	}
	if fine.Row3(0, 4)[4] != 0 {
		t.Fatal("fine boundary not zeroed")
	}
}

// TestRestrict3DIsScaledTransposeOfInterpolate: the variational pairing
// R = (1/8)·Pᵀ in 3D, checked as ⟨R r, c⟩ = (1/8)·⟨r, P c⟩ for random
// interior-supported r and c.
func TestRestrict3DIsScaledTransposeOfInterpolate(t *testing.T) {
	nf, nc := 17, 9
	rng := rand.New(rand.NewSource(3))
	r := grid.New3(nf)
	for i := 1; i < nf-1; i++ {
		for j := 1; j < nf-1; j++ {
			for k := 1; k < nf-1; k++ {
				r.Set3(i, j, k, rng.Float64()*2-1)
			}
		}
	}
	c := grid.New3(nc)
	for i := 1; i < nc-1; i++ {
		for j := 1; j < nc-1; j++ {
			for k := 1; k < nc-1; k++ {
				c.Set3(i, j, k, rng.Float64()*2-1)
			}
		}
	}
	rc := grid.New3(nc)
	Restrict(nil, rc, r)
	pc := grid.New3(nf)
	Interpolate(nil, pc, c)

	dot := func(a, b *grid.Grid) float64 {
		var s float64
		ad, bd := a.Data(), b.Data()
		for i := range ad {
			s += ad[i] * bd[i]
		}
		return s
	}
	lhs := dot(rc, c)
	rhs := dot(r, pc) / 8
	if math.Abs(lhs-rhs) > 1e-10*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("⟨Rr,c⟩ = %v but ⟨r,Pc⟩/8 = %v", lhs, rhs)
	}
}

// TestTransfer3DParallelMatchesSerial: chunked plane parallelism must be
// bit-identical to the serial sweep.
func TestTransfer3DParallelMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	nf, nc := 65, 33 // above the 3D plane threshold
	rng := rand.New(rand.NewSource(4))
	fine := grid.New3(nf)
	d := fine.Data()
	for i := range d {
		d[i] = rng.Float64()*2 - 1
	}
	cs, cp := grid.New3(nc), grid.New3(nc)
	Restrict(nil, cs, fine)
	Restrict(pool, cp, fine)
	assertSame3(t, cs, cp, "Restrict")

	fs, fp := grid.New3(nf), grid.New3(nf)
	Interpolate(nil, fs, cs)
	Interpolate(pool, fp, cs)
	assertSame3(t, fs, fp, "Interpolate")
}

func assertSame3(t *testing.T, a, b *grid.Grid, what string) {
	t.Helper()
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			t.Fatalf("%s: serial and parallel differ at flat index %d: %v vs %v", what, i, ad[i], bd[i])
		}
	}
}

// TestRestrictCoefRejects3D locks down the satellite guard: the 2D-only
// coefficient restriction must fail loudly on 3D grids.
func TestRestrictCoefRejects3D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RestrictCoef accepted 3D grids")
		}
	}()
	RestrictCoef(grid.New3(5), grid.New3(9))
}

// TestTransferRejectsMixedDimensions: restriction between a 2D and a 3D
// grid is a bug, not a conversion.
func TestTransferRejectsMixedDimensions(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on mixed dimensions", name)
			}
		}()
		f()
	}
	mustPanic("Restrict", func() { Restrict(nil, grid.New(5), grid.New3(9)) })
	mustPanic("Interpolate", func() { Interpolate(nil, grid.New3(9), grid.New(5)) })
}
