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
// whatever prices it. References converge by multigrid and factor only the
// 3×3 coarsest level, unless refsol's pace guard hands a stalled one to the
// band solve. A model prices the direct choice from its trace and factors
// only what the candidates' coarse solves use (poisson to N = 17, poisson3d
// to N = 5); a wall clock times the cached solve at every level up to
// DirectMaxLevel, which adds every size to N = 129 (N = 17 in 3D). In the
// last two cases the tuner itself explores direct at level 2 only, so
// poisson factors N = 3 and 5 alone, and aniso ε = 0.01's matrices at
// N = 17 and 33 are there only if the guard's band solves factor in the
// tuner's cache.
func TestTuneFactorsEachMatrixOnce(t *testing.T) {
	for _, tc := range []struct {
		family              stencil.Family
		eps                 float64
		maxLevel, directMax int
		model, wall         int64 // sizes factored
	}{
		{stencil.FamilyPoisson, 0, 7, 0, 4, 7},
		{stencil.FamilyPoisson3D, 0, 4, 0, 2, 4},
		{stencil.FamilyPoisson, 0, 5, 2, 2, 2},
		{stencil.FamilyAnisotropic, 0.01, 5, 2, 4, 4},
	} {
		for _, coster := range []arch.Coster{arch.Harpertown(), arch.WallClock{}} {
			t.Run(fmt.Sprintf("%v-%d-%d/%s", tc.family, tc.maxLevel, tc.directMax, coster.Name()), func(t *testing.T) {
				tn, err := New(Config{Family: tc.family, Eps: tc.eps, MaxLevel: tc.maxLevel, DirectMaxLevel: tc.directMax, Seed: 42, Coster: coster})
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
// to the process. An aniso ε = 0.01 tune to N = 129 factors a 16.5 MB band
// matrix there, where refsol's guard hands its stalled references to the
// band solve; once Tune has returned and the tuner is unreachable, none
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
	tn, err := New(Config{Family: stencil.FamilyAnisotropic, Eps: 0.01, MaxLevel: 7, Seed: 42, Coster: arch.Harpertown()})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	tn = nil
	after := liveHeap()
	const slack = 2 << 20 // the tables are kilobytes; the N=129 factor is 16.5 MB
	if after > before+slack {
		t.Fatalf("live heap grew %.1f MB across a finished tune, want < %.1f MB: a factorization outlived its tuner",
			float64(after-before)/(1<<20), float64(slack)/(1<<20))
	}
	runtime.KeepAlive(tuned)
}
