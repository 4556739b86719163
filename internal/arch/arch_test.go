package arch

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"pbmg/internal/mg"
)

func TestWallClock(t *testing.T) {
	var w WallClock
	if w.Name() != "host-wallclock" {
		t.Fatalf("Name = %q", w.Name())
	}
	if got := w.Cost(nil, 1500*time.Millisecond); got != 1.5 {
		t.Fatalf("Cost = %v, want 1.5", got)
	}
}

func TestModelsAndByName(t *testing.T) {
	ms := Models()
	if len(ms) != 3 {
		t.Fatalf("Models() has %d entries, want 3", len(ms))
	}
	for _, m := range ms {
		got, err := ByName(m.Name())
		if err != nil {
			t.Fatalf("ByName(%q): %v", m.Name(), err)
		}
		if got.Name() != m.Name() {
			t.Fatalf("ByName returned %q, want %q", got.Name(), m.Name())
		}
	}
	if _, err := ByName("cray-1"); err == nil {
		t.Fatal("ByName accepted unknown machine")
	}
}

func TestRelaxCostGrowsWithLevel(t *testing.T) {
	m := Harpertown()
	prev := 0.0
	for l := 3; l <= 11; l++ {
		c := m.EventCost(mg.EvRelax, l, 1)
		if c <= prev {
			t.Fatalf("relax cost at level %d (%v) not greater than level %d (%v)", l, c, l-1, prev)
		}
		prev = c
	}
}

func TestDirectCostQuarticGrowth(t *testing.T) {
	m := Barcelona()
	// Doubling the grid side should raise direct cost by roughly 16×.
	r := m.EventCost(mg.EvDirect, 8, 1) / m.EventCost(mg.EvDirect, 7, 1)
	if r < 10 || r > 24 {
		t.Fatalf("direct cost ratio per level = %v, want ≈16", r)
	}
}

func TestDirectVsRelaxCrossover(t *testing.T) {
	// At coarse levels a direct solve should beat even a handful of
	// relaxations; at fine levels it must be vastly more expensive. This is
	// the crossover that drives the paper's shortcut decisions.
	m := Harpertown()
	coarseDirect := m.EventCost(mg.EvDirect, 3, 1)
	coarseRelax := m.EventCost(mg.EvRelax, 3, 20)
	if coarseDirect >= coarseRelax {
		t.Fatalf("level 3: direct (%v) should beat 20 relaxations (%v)", coarseDirect, coarseRelax)
	}
	fineDirect := m.EventCost(mg.EvDirect, 11, 1)
	fineRelax := m.EventCost(mg.EvRelax, 11, 100)
	if fineDirect <= fineRelax {
		t.Fatalf("level 11: direct (%v) should cost more than 100 relaxations (%v)", fineDirect, fineRelax)
	}
}

func TestNiagaraPenalizesDirectRelativeToIntel(t *testing.T) {
	intel, sun := Harpertown(), Niagara()
	lvl := 6
	intelRatio := intel.EventCost(mg.EvDirect, lvl, 1) / intel.EventCost(mg.EvRelax, lvl, 1)
	sunRatio := sun.EventCost(mg.EvDirect, lvl, 1) / sun.EventCost(mg.EvRelax, lvl, 1)
	if sunRatio <= intelRatio {
		t.Fatalf("direct/relax ratio: sun %v should exceed intel %v (slow scalar cores)", sunRatio, intelRatio)
	}
}

func TestCostTraceLinearity(t *testing.T) {
	m := Barcelona()
	var a, b, ab mg.OpTrace
	a.Record(mg.EvRelax, 6, 3)
	a.Record(mg.EvDirect, 4, 1)
	b.Record(mg.EvRestrict, 6, 2)
	b.Record(mg.EvInterp, 6, 2)
	ab.Merge(&a)
	ab.Merge(&b)
	ca, cb, cab := m.Cost(&a, 0), m.Cost(&b, 0), m.Cost(&ab, 0)
	if diff := cab - (ca + cb); diff > 1e-9*cab || diff < -1e-9*cab {
		t.Fatalf("cost not additive: %v + %v != %v", ca, cb, cab)
	}
}

func TestCostIgnoresElapsedForModels(t *testing.T) {
	m := Niagara()
	var tr mg.OpTrace
	tr.Record(mg.EvRelax, 5, 1)
	if m.Cost(&tr, time.Hour) != m.Cost(&tr, 0) {
		t.Fatal("model cost should not depend on wall time")
	}
}

func TestEmptyTraceCostsNothing(t *testing.T) {
	var tr mg.OpTrace
	for _, m := range Models() {
		if c := m.Cost(&tr, 0); c != 0 {
			t.Fatalf("%s: empty trace cost = %v, want 0", m.Name(), c)
		}
	}
}

func TestRestrictChargedAtCoarseLevel(t *testing.T) {
	m := Harpertown()
	// Restriction writes the coarse grid; its cost must be much closer to a
	// coarse-level stencil pass than a fine-level one.
	c := m.EventCost(mg.EvRestrict, 8, 1)
	fine := m.EventCost(mg.EvRelax, 8, 1)
	if c >= fine*2 {
		t.Fatalf("restrict cost %v should be comparable to coarse work, not fine (%v)", c, fine)
	}
}

func TestParallelThresholdMakesSmallGridsSerial(t *testing.T) {
	m := Harpertown()
	// A small grid pays no task overhead; verify by checking cost scales
	// smoothly: cost(level 4) < cost(level 5) < overhead-dominated regime.
	small := m.EventCost(mg.EvRelax, 4, 1)
	if small > m.TaskOverhead {
		t.Fatalf("tiny relax (%v) should cost less than task overhead (%v)", small, m.TaskOverhead)
	}
}

// TestIterSolveCostMonotone: a shortcut solve is priced as the strided sweeps
// it runs, so its cost equals that many relaxations and rises strictly with
// every sweep, in both dimensions and under every model. (Until the 3D
// colour-split layout was deleted, eight sweeps at level ≥ 6 were priced
// below seven. The tuner's bound still compares only the cheapest count
// reachable, because a measured coster — WallClock — promises no such shape.)
func TestIterSolveCostMonotone(t *testing.T) {
	for _, base := range Models() {
		for _, dim := range []int{2, 3} {
			m := ForDim(base, dim).(*Model)
			for level := 1; level <= 10; level++ {
				for n := 1; n <= 400; n++ {
					c := m.EventCost(mg.EvIterSolve, level, n)
					if relax := m.EventCost(mg.EvRelax, level, n); c != relax {
						t.Fatalf("%s %dD level %d: %d shortcut sweeps cost %v, %d relaxations %v", base.Name(), dim, level, n, c, n, relax)
					}
					if next := m.EventCost(mg.EvIterSolve, level, n+1); !(c < next) {
						t.Fatalf("%s %dD level %d: cost did not rise from %d to %d sweeps (%v → %v)", base.Name(), dim, level, n, n+1, c, next)
					}
				}
			}
		}
	}
}

// eventCostSurface hashes every priced value the tuner can ask a model for:
// each model × dimension × event kind × level × count, leaving out the
// cells skip names.
func eventCostSurface(skip func(dim int, kind mg.EventKind, level, count int) bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, base := range Models() {
		for _, dim := range []int{2, 3} {
			m := ForDim(base, dim).(*Model)
			for k := mg.EvRelax; k <= mg.EvIterSolve; k++ {
				for level := 1; level <= 10; level++ {
					for _, count := range []int{1, 2, 7, 8, 9, 16, 64, 400} {
						if skip != nil && skip(dim, k, level, count) {
							continue
						}
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.EventCost(k, level, count)))
						h.Write(buf[:])
					}
				}
			}
		}
	}
	return h.Sum64()
}

// TestEventCostSurfaceUnchanged holds every priced value where it was when
// the tables in internal/goldens and BENCHMARK.json's plan cells were tuned.
// The surface last moved when the 3D colour-split layout and its pricing
// branch were deleted, and only in the cells that branch priced: 3D shortcut
// solves of eight sweeps and more at level 6 and up; the second hash leaves
// those cells out. When the float32 storage width left the model, both
// hashes were re-taken over the float64 half of the surface on the commit
// before, so the float64 prices are shown unchanged by that removal.
// A deliberate re-pricing (ROADMAP item 3) updates both together with the
// goldens.
func TestEventCostSurfaceUnchanged(t *testing.T) {
	const (
		want          = 0xf9b056c4a1a8318e
		wantSansSplit = 0x2cd19ebea8fa99c6
	)
	if got := eventCostSurface(nil); got != want {
		t.Errorf("priced cost surface hash = %#x, want %#x: some EventCost value moved", got, uint64(want))
	}
	wasSplit := func(dim int, kind mg.EventKind, level, count int) bool {
		return dim == 3 && kind == mg.EvIterSolve && level >= 6 && count >= 8
	}
	if got := eventCostSurface(wasSplit); got != wantSansSplit {
		t.Errorf("priced cost surface hash outside the former 3D split cells = %#x, want %#x", got, uint64(wantSansSplit))
	}
}
