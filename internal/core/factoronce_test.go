package core

import (
	"fmt"
	"runtime"
	"testing"

	"pbmg/internal/arch"
	"pbmg/internal/stencil"
)

// TestTuneFactorsEachMatrixOnce: a whole tune — reference solves, V and
// full tables — factors each (operator, size) it touches exactly once,
// whatever prices it. The references factor the levels up to the reference
// solver's direct cut-off: all of them here but poisson's N = 129, whose
// references come from multigrid. A model prices the direct choice from its
// trace and factors nothing more; a wall clock times the cached solve at
// every level up to DirectMaxLevel, which adds N = 129. In the last case the
// tuner itself explores direct at level 2 only, so the matrices of levels
// 3…5 are there only if the references factor in the tuner's cache.
func TestTuneFactorsEachMatrixOnce(t *testing.T) {
	for _, tc := range []struct {
		family              stencil.Family
		maxLevel, directMax int
		model, wall         int64 // sizes factored
	}{
		{stencil.FamilyPoisson, 7, 0, 6, 7},
		{stencil.FamilyPoisson3D, 4, 0, 4, 4},
		{stencil.FamilyPoisson, 5, 2, 5, 5},
	} {
		for _, coster := range []arch.Coster{arch.Harpertown(), arch.WallClock{}} {
			t.Run(fmt.Sprintf("%v-%d-%d/%s", tc.family, tc.maxLevel, tc.directMax, coster.Name()), func(t *testing.T) {
				tn, err := New(Config{Family: tc.family, MaxLevel: tc.maxLevel, DirectMaxLevel: tc.directMax, Seed: 42, Coster: coster})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tn.Tune(); err != nil {
					t.Fatal(err)
				}
				want := tc.wall
				if traceBased(coster) {
					want = tc.model
				}
				if got := tn.ws.FactorCache.Factorizations(); got != want {
					t.Errorf("tune ran %d factorizations, want %d (one per size)", got, want)
				}
				if got := int64(tn.ws.FactorCache.Len()); got != want {
					t.Errorf("factor cache holds %d matrices, want %d", got, want)
				}
				if got := tn.spent().Factorizations; got != want {
					t.Errorf("tuner counts %d factorizations, want %d", got, want)
				}
				var booked int64
				for _, ls := range tn.Stats() {
					booked += ls.Factorizations
				}
				if booked != want {
					t.Errorf("levels are charged %d factorizations, want %d", booked, want)
				}
			})
		}
	}
}

// TestTunerCacheDiesWithTuner: the factorizations belong to the tuner, not
// to the process. A poisson3d tune to N=17 factors a 6.1 MB band matrix for
// its references; once Tune has returned and the tuner is unreachable, none
// of it may still be live — a process-wide cache would sit on every served
// heap for good.
func TestTunerCacheDiesWithTuner(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	tn, err := New(Config{Family: stencil.FamilyPoisson3D, MaxLevel: 4, Seed: 42, Coster: arch.Harpertown()})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	tn = nil
	after := liveHeap()
	const slack = 2 << 20 // the tables are kilobytes; the N=17 factor is 6.1 MB
	if after > before+slack {
		t.Fatalf("live heap grew %.1f MB across a finished tune, want < %.1f MB: a factorization outlived its tuner",
			float64(after-before)/(1<<20), float64(slack)/(1<<20))
	}
	runtime.KeepAlive(tuned)
}
