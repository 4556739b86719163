package grid

import (
	"math/rand"
	"testing"
)

func TestGrid3Basics(t *testing.T) {
	g := NewDim(3, 5)
	if g.Dim() != 3 || g.N() != 5 || g.Points() != 125 {
		t.Fatalf("NewDim(3, 5): dim=%d n=%d points=%d", g.Dim(), g.N(), g.Points())
	}
	g.Set3(1, 2, 3, 7.5)
	// Flat layout: plane-major, then row-major.
	if g.Data()[(1*5+2)*5+3] != 7.5 {
		t.Fatal("Set3 wrote the wrong flat index")
	}
	if r := g.Row3(1, 2); r[3] != 7.5 {
		t.Fatalf("Row3 slice = %v", r)
	}
	if p := g.Plane(1); p[2*5+3] != 7.5 {
		t.Fatal("Plane slice misses the value")
	}
	c := g.Clone()
	if c.Dim() != 3 || c.Row3(1, 2)[3] != 7.5 {
		t.Fatal("Clone dropped dimension or data")
	}
}

// TestDimensionGuards locks down the satellite requirement: 2D accessors on
// a 3D grid (and vice versa) must panic with an explicit dimension error,
// never silently mis-index.
func TestDimensionGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on wrong-dimension access", name)
			}
		}()
		f()
	}
	g3 := NewDim(3, 5)
	mustPanic("At on 3D", func() { g3.At(1, 1) })
	mustPanic("Set on 3D", func() { g3.Set(1, 1, 0) })
	mustPanic("Row on 3D", func() { g3.Row(1) })
	g2 := New(5)
	mustPanic("Set3 on 2D", func() { g2.Set3(1, 1, 1, 0) })
	mustPanic("Plane on 2D", func() { g2.Plane(1) })
	mustPanic("Row3 on 2D", func() { g2.Row3(1, 1) })
	mustPanic("CopyFrom mixed", func() { g2.CopyFrom(g3) })
	mustPanic("NewDim(4)", func() { NewDim(4, 5) })
}

func TestZeroBoundary3D(t *testing.T) {
	n := 5
	g := NewDim(3, n)
	g.Fill(1)
	g.ZeroBoundary()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				onBoundary := i == 0 || i == n-1 || j == 0 || j == n-1 || k == 0 || k == n-1
				v := g.Row3(i, j)[k]
				if onBoundary && v != 0 {
					t.Fatalf("boundary (%d,%d,%d) = %v, want 0", i, j, k, v)
				}
				if !onBoundary && v != 1 {
					t.Fatalf("interior (%d,%d,%d) = %v, want 1", i, j, k, v)
				}
			}
		}
	}
}

func TestNorms3D(t *testing.T) {
	g := NewDim(3, 4) // 2×2×2 interior
	g.Fill(2)
	if got := L2Interior(g); got != 4*math32sqrt2() {
		// 8 interior points of value 2: sqrt(8·4) = 4·sqrt(2).
		t.Fatalf("L2Interior = %v", got)
	}
	if got := MaxAbsInterior(g); got != 2 {
		t.Fatalf("MaxAbsInterior = %v", got)
	}
	h := NewDim(3, 4)
	h.Fill(1)
	if got := L2DiffInterior(g, h); got != 2*math32sqrt2() {
		t.Fatalf("L2DiffInterior = %v", got)
	}
}

func math32sqrt2() float64 { return 1.4142135623730951 }

func TestFillBoundaryRandom3D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewDim(3, 5)
	FillBoundaryRandom(g, Unbiased, rng)
	if g.Row3(2, 2)[2] != 0 {
		t.Fatal("FillBoundaryRandom touched the interior")
	}
	nonzero := 0
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if g.Row3(0, i)[j] != 0 {
				nonzero++
			}
		}
	}
	if nonzero < 20 {
		t.Fatalf("first face mostly zero (%d/25 filled)", nonzero)
	}
}

func TestFillRandomPointSources3D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewDim(3, 9)
	FillRandom(g, PointSources, rng)
	impulses := 0
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			for k := 0; k < 9; k++ {
				v := g.Row3(i, j)[k]
				if v != 0 {
					impulses++
					if i == 0 || i == 8 || j == 0 || j == 8 || k == 0 || k == 8 {
						t.Fatalf("impulse on the boundary at (%d,%d,%d)", i, j, k)
					}
				}
			}
		}
	}
	if impulses == 0 {
		t.Fatal("no point sources placed")
	}
}
