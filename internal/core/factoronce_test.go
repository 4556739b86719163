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
// whatever prices it. The sizes are the levels 1…MaxLevel: every one is at
// or below the direct cut-off of the reference solver. In the last case the
// tuner itself explores direct at level 2 only, so the matrices of levels
// 3…5 are there only if the references factor in the tuner's cache.
func TestTuneFactorsEachMatrixOnce(t *testing.T) {
	for _, tc := range []struct {
		family              stencil.Family
		maxLevel, directMax int
	}{{stencil.FamilyPoisson, 7, 0}, {stencil.FamilyPoisson3D, 4, 0}, {stencil.FamilyPoisson, 5, 2}} {
		for _, coster := range []arch.Coster{arch.Harpertown(), arch.WallClock{}} {
			t.Run(fmt.Sprintf("%v-%d-%d/%s", tc.family, tc.maxLevel, tc.directMax, coster.Name()), func(t *testing.T) {
				tn, err := New(Config{Family: tc.family, MaxLevel: tc.maxLevel, DirectMaxLevel: tc.directMax, Seed: 42, Coster: coster})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tn.Tune(); err != nil {
					t.Fatal(err)
				}
				want := int64(tc.maxLevel)
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
// to the process. A tune to N=129 factors a 16.5 MB band matrix; once Tune
// has returned and the tuner is unreachable, none of it may still be live —
// a process-wide cache would sit on every served heap for good.
func TestTunerCacheDiesWithTuner(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	tn, err := New(Config{MaxLevel: 7, Seed: 42, Coster: arch.Harpertown()})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	tn = nil
	after := liveHeap()
	const slack = 4 << 20 // the tables are kilobytes; the N=129 factor is 16.5 MB
	if after > before+slack {
		t.Fatalf("live heap grew %.1f MB across a finished tune, want < %.1f MB: a factorization outlived its tuner",
			float64(after-before)/(1<<20), float64(slack)/(1<<20))
	}
	runtime.KeepAlive(tuned)
}
