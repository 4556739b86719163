package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"pbmg/internal/arch"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/stencil"
)

// TestTuneStatsPinned: under a trace-priced coster the work a tune spends is
// a function of its Config alone, however its searches are scheduled. The
// literals are the per-level Stats of a wholly serial tune (every V level,
// then every full level), which the level fork-join must reproduce; run it
// with -cpu 1,2 to hold both schedules to them.
func TestTuneStatsPinned(t *testing.T) {
	type pinned struct {
		family stencil.Family
		level  int
		want   []LevelStats // nil: totals only
		total  Stats
	}
	cases := []pinned{
		{stencil.FamilyPoisson, 7, []LevelStats{
			// References from multigrid (factoring N = 3), direct priced
			// from its trace: only the candidates' coarse solves factor.
			// Every step is a counted one (traces come from the first),
			// so steps exceed accuracy evals only by the first steps the
			// bound then cut at iteration 0.
			{2, Stats{44, 42, 29, 15, 1}},
			{3, Stats{44, 42, 29, 16, 1}},
			{4, Stats{44, 42, 148, 147, 1}},
			{5, Stats{44, 39, 421, 421, 1}},
			{6, Stats{44, 38, 359, 359, 0}},
			{7, Stats{44, 38, 358, 358, 0}},
		}, Stats{264, 241, 1344, 1316, 4}},
		{stencil.FamilyVarCoef, 6, []LevelStats{
			{2, Stats{44, 42, 29, 15, 1}},
			{3, Stats{44, 42, 29, 16, 1}},
			{4, Stats{44, 42, 136, 135, 1}},
			{5, Stats{44, 42, 567, 567, 1}},
			{6, Stats{44, 38, 583, 583, 1}},
		}, Stats{220, 206, 1344, 1316, 5}},
		{stencil.FamilyPoisson3D, 4, []LevelStats{
			{2, Stats{44, 42, 29, 16, 1}},
			{3, Stats{44, 4, 1222, 1222, 1}},
			{4, Stats{44, 38, 543, 543, 0}},
		}, Stats{132, 84, 1794, 1781, 2}},
	}
	if !testing.Short() {
		// The benchmark's poisson 513 tune.
		cases = append(cases, pinned{stencil.FamilyPoisson, 9, nil, Stats{348, 317, 2146, 2118, 4}})
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/L%d", tc.family, tc.level), func(t *testing.T) {
			tn, err := New(Config{MaxLevel: tc.level, Family: tc.family, Seed: 20090101, Coster: arch.Harpertown()})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tn.Tune(); err != nil {
				t.Fatal(err)
			}
			got := tn.Stats()
			var total Stats
			for _, ls := range got {
				total.Add(ls.Stats)
			}
			if tc.want != nil && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("per-level Stats\n got %v\nwant %v", got, tc.want)
			}
			if total != tc.total {
				t.Errorf("total Stats %v, want %v", total, tc.total)
			}
		})
	}
}

// TestTimeOneIterBatches: under a wall clock a short step is re-run in
// doubling batches, the step timed with its trace counting as the batch of
// one, until a batch lasts minSample (200 µs); two more batches of that
// size follow. A step busy-waiting 70 µs passes at four at the latest, so
// the batches run 1, 2, 4, 4, 4 — or stop doubling sooner if the box stalls
// a batch — and never repeat the first step or confirm at twice the size.
func TestTimeOneIterBatches(t *testing.T) {
	tn, err := New(Config{MaxLevel: 2, Seed: 42, TrainingInstances: 1, Coster: arch.WallClock{}})
	if err != nil {
		t.Fatal(err)
	}
	probs := tn.training(2)
	// Every batch starts from a fresh state, which the step marks: an
	// unmarked state is the first step of a new batch.
	const mark = math.Pi
	var batches []int // steps run per state
	step := func(x, b *grid.Grid, rec mg.Recorder) {
		if x.At(1, 1) != mark {
			x.Set(1, 1, mark)
			batches = append(batches, 0)
		}
		batches[len(batches)-1]++
		for start := time.Now(); time.Since(start) < 70*time.Microsecond; {
		}
	}
	tn.timeOneIter(probs, step)
	passing := batches[len(batches)-1]
	var want []int
	for reps := 1; reps <= passing; reps *= 2 {
		want = append(want, reps)
	}
	want = append(want, passing, passing)
	if passing > 4 || !reflect.DeepEqual(batches, want) {
		t.Fatalf("batches %v, want %v with a passing size of at most 4", batches, want)
	}
	var ran int64
	for _, n := range batches {
		ran += int64(n)
	}
	if tn.work.Steps != ran {
		t.Fatalf("tuner booked %d steps, ran %d", tn.work.Steps, ran)
	}
}
