package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pbmg/internal/arch"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/stencil"
)

// exhaustiveTune is the dynamic program without the bound — the oracle the
// branch-and-bound must reproduce byte for byte. Every candidate of every
// level is measured in rank order by the tuner's own measure functions with
// a nil bound, and selection is the plain first-cheapest scan. A FULL cell
// priced strictly above its level's V cell runs that V cell instead.
func exhaustiveTune(tn *Tuner) *Tuned {
	acc := tn.cfg.Accuracies
	vt := &mg.VTable{Acc: append([]float64(nil), acc...)}
	var vprice [][]float64 // the V winners' prices, per level from 2
	for level := 2; level <= tn.cfg.MaxLevel; level++ {
		probs := tn.training(level)
		var res []measured
		for _, c := range tn.vCandidates(vt, level) {
			res = append(res, tn.measure(level, c, probs, nil))
		}
		row, price := firstCheapest(res, len(acc))
		vt.Plans = append(vt.Plans, row)
		vprice = append(vprice, price)
	}
	ft := &mg.FTable{Acc: append([]float64(nil), acc...)}
	for level := 2; level <= tn.cfg.MaxLevel; level++ {
		probs := tn.training(level)
		var res []measuredFull
		for _, c := range tn.fullCandidates(vt, ft, level, probs) {
			res = append(res, tn.measureFull(level, c, probs, nil))
		}
		row := make([]mg.FullPlan, len(acc))
		for i := range acc {
			best, bestCost := -1, math.Inf(1)
			for c, r := range res {
				if r.costPerAcc[i] < bestCost {
					best, bestCost = c, r.costPerAcc[i]
				}
			}
			row[i] = mg.FullPlan{Choice: mg.FullDirect}
			if best >= 0 {
				row[i] = withFullIters(res[best], i)
			}
			if bestCost > vprice[level-2][i] {
				row[i] = mg.FullPlan{Choice: mg.FullV}
			}
		}
		ft.Plans = append(ft.Plans, row)
	}
	return tn.bundle(vt, ft)
}

// firstCheapest is the V selection without the bound: per accuracy index,
// the first of the candidates (in rank order) whose cost no later one
// undercuts, or direct when none is feasible, and its price (+Inf then).
func firstCheapest(res []measured, accs int) ([]mg.Plan, []float64) {
	row, price := make([]mg.Plan, accs), make([]float64, accs)
	for i := range row {
		best, bestCost := -1, math.Inf(1)
		for c, r := range res {
			if r.costPerAcc[i] < bestCost {
				best, bestCost = c, r.costPerAcc[i]
			}
		}
		row[i], price[i] = mg.Plan{Choice: mg.ChoiceDirect}, bestCost
		if best >= 0 {
			row[i] = withIters(res[best], i)
		}
	}
	return row, price
}

// exhaustiveHeuristic is TuneHeuristic without the bound — the strategy
// loop TuneHeuristic ran before it selected through tuneVLevel: direct
// (while it is explored) and RECURSE into the sub-accuracy, each measured
// in full, first-cheapest selection.
func exhaustiveHeuristic(tn *Tuner, subAcc, topAcc float64) *mg.VTable {
	accs := []float64{subAcc, topAcc}
	if subAcc == topAcc {
		accs = []float64{topAcc}
	}
	saved := tn.cfg.Accuracies
	tn.cfg.Accuracies = accs
	defer func() { tn.cfg.Accuracies = saved }()
	vt := &mg.VTable{Acc: accs}
	for level := 2; level <= tn.cfg.MaxLevel; level++ {
		probs := tn.training(level)
		var res []measured
		if level <= tn.cfg.DirectMaxLevel {
			res = append(res, tn.measure(level, candidate{plan: mg.Plan{Choice: mg.ChoiceDirect}}, probs, nil))
		}
		rec := tn.recurseCandidate(&mg.Executor{WS: tn.ws, V: vt}, 0)
		res = append(res, tn.measure(level, rec, probs, nil))
		row, _ := firstCheapest(res, len(accs))
		vt.Plans = append(vt.Plans, row)
	}
	return vt
}

// TestHeuristicMatchesExhaustive: the five strategies of Fig. 7, selected
// by the bounded search, are the tables the unbounded strategy loop builds,
// on the biased data and model of the figure.
func TestHeuristicMatchesExhaustive(t *testing.T) {
	bounded, oracle := newModelTuner(t, 6, grid.Biased), newModelTuner(t, 6, grid.Biased)
	for _, sub := range []float64{1e9, 1e7, 1e5, 1e3, 1e1} {
		got, err := bounded.TuneHeuristic(sub, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if want := exhaustiveHeuristic(oracle, sub, 1e9); !reflect.DeepEqual(got, want) {
			t.Errorf("strategy %s:\n got %+v\nwant %+v", HeuristicName(sub, 1e9), got.Plans, want.Plans)
		}
	}
	if bounded.work.CutShort == 0 {
		t.Fatal("the bound cut no candidate: the test compared two unbounded loops")
	}
}

// clockless prices from the trace like the model it wraps but is not
// TraceBased, so the tuner takes its wall-clock paths — batch re-sampling,
// a fresh factorization per direct solve — under a cost that still repeats.
type clockless struct{ m *arch.Model }

func (c clockless) Name() string { return "clockless-" + c.m.Name() }
func (c clockless) Cost(tr *mg.OpTrace, _ time.Duration) float64 {
	return c.m.Cost(tr, 0)
}

// requireSameTune fails unless two tuners produced byte-identical bundles.
func requireSameTune(t *testing.T, got, want *Tuned) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("bundles differ:\n got %s\nwant %s", gj, wj)
	}
}

type tuneCase struct {
	family stencil.Family
	level  int
	coster arch.Coster
	seed   int64
}

func (tc tuneCase) String() string {
	return fmt.Sprintf("%s/L%d/%s/seed%d", tc.family, tc.level, tc.coster.Name(), tc.seed)
}

func (tc tuneCase) tuner(t *testing.T) *Tuner {
	t.Helper()
	tn, err := New(Config{MaxLevel: tc.level, Family: tc.family, Seed: tc.seed, Coster: tc.coster, TrainingInstances: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestBoundedTuneMatchesExhaustive(t *testing.T) {
	var cases []tuneCase
	for _, f := range []stencil.Family{stencil.FamilyPoisson, stencil.FamilyAnisotropic, stencil.FamilyVarCoef, stencil.FamilyPoisson3D} {
		level := 6
		if f.Dim() == 3 {
			level = 4
		}
		for _, m := range arch.Models() {
			for _, seed := range []int64{1, 20090101} {
				cases = append(cases, tuneCase{f, level, m, seed})
			}
		}
	}
	cases = append(cases,
		tuneCase{stencil.FamilyPoisson, 5, clockless{arch.Harpertown()}, 1},
		tuneCase{stencil.FamilyPoisson3D, 3, clockless{arch.ForDim(arch.Barcelona(), 3).(*arch.Model)}, 1},
		// A cost curve with a dip, over a whole tune (see TestBoundUsesSuffixMinimum).
		tuneCase{stencil.FamilyPoisson, 5, dipping{}, 1},
	)
	for _, tc := range cases {
		t.Run(tc.String(), func(t *testing.T) {
			t.Parallel()
			bounded, oracle := tc.tuner(t), tc.tuner(t)
			got, err := bounded.Tune()
			if err != nil {
				t.Fatal(err)
			}
			requireSameTune(t, got, exhaustiveTune(oracle))
			var b Stats
			for _, ls := range bounded.Stats() {
				b.Add(ls.Stats)
			}
			o := oracle.spent()
			if b.Candidates != o.Candidates {
				t.Errorf("bounded tune measured %d candidates, oracle %d", b.Candidates, o.Candidates)
			}
			if traceBased(tc.coster) && b.Steps >= o.Steps {
				t.Errorf("the bound saved nothing: %d steps bounded, %d exhaustive", b.Steps, o.Steps)
			}
		})
	}
}

// TestMeasurementOrderIsInvisible shuffles the order candidates are measured
// in: the bound bites earlier or later, the tables do not move.
func TestMeasurementOrderIsInvisible(t *testing.T) {
	for _, tc := range []tuneCase{
		{stencil.FamilyPoisson, 5, arch.Harpertown(), 42},
		{stencil.FamilyPoisson3D, 3, arch.Niagara(), 42},
		{stencil.FamilyPoisson, 4, clockless{arch.Harpertown()}, 42},
	} {
		ref := tc.tuner(t)
		want, err := ref.Tune()
		if err != nil {
			t.Fatal(err)
		}
		for shuffle := int64(1); shuffle <= 4; shuffle++ {
			tn := tc.tuner(t)
			rng := rand.New(rand.NewSource(shuffle))
			var mu sync.Mutex // a level's two searches shuffle at once
			tn.reorder = func(order []int) {
				mu.Lock()
				defer mu.Unlock()
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			got, err := tn.Tune()
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/shuffle%d", tc, shuffle), func(t *testing.T) {
				requireSameTune(t, got, want)
			})
		}
	}
}

// TestSearchTieGoesToLowestRank measures two candidates of exactly equal
// cost, the higher rank first: the lower rank must neither be cut by a bound
// it merely equals nor lose the selection to the one measured earlier.
func TestSearchTieGoesToLowestRank(t *testing.T) {
	tn := newModelTuner(t, 3, grid.Unbiased)
	probs := tn.training(3)
	step := tn.sorStep(3)
	linear := curveOf(50, nil, func(n int) float64 { return float64(n) })
	for _, first := range []int{0, 1} {
		tn.reorder = func(order []int) { order[0], order[1] = first, 1-first }
		var measuredOrder []int
		iters := make([][]int, 2)
		win := tn.search(2, func(int) bool { return false }, func(c int, best []float64) []float64 {
			measuredOrder = append(measuredOrder, c)
			iters[c], _ = tn.count(probs, nil, step, linear, best)
			return linear.price(iters[c])
		})
		if measuredOrder[0] != first {
			t.Fatalf("measured %v, want candidate %d first", measuredOrder, first)
		}
		if !reflect.DeepEqual(iters[0], iters[1]) {
			t.Fatalf("measured %d first: equal candidates counted %v and %v — a tie was cut", first, iters[0], iters[1])
		}
		for i, w := range win {
			if w != 0 {
				t.Fatalf("measured %d first: accuracy %d went to rank %d, want rank 0", first, i, w)
			}
		}
	}
}

// dipping is a trace-priced coster whose cost is not monotone in the
// iteration count: an operation costs one unit per grid point (a direct
// solve, per point squared) until a trace holds eight shortcut sweeps at a
// level, from where those sweeps cost a tenth — the shape arch.EventCost
// had in 3D while it priced the colour-split layout, exaggerated until
// coarse-level SOR wins only past the dip. No coster in the tree dips any
// more; the Coster interface still lets one.
type dipping struct{}

func (dipping) Name() string { return "dipping" }
func (dipping) TraceBased()  {}
func (dipping) Cost(tr *mg.OpTrace, _ time.Duration) float64 {
	var total float64
	for k := mg.EvRelax; k <= mg.EvIterSolve; k++ {
		for l := 1; l <= tr.MaxLevel(); l++ {
			points := float64(grid.SizeOfLevel(l) * grid.SizeOfLevel(l))
			c := float64(tr.Count(k, l)) * points
			switch {
			case k == mg.EvIterSolve && tr.Count(k, l) >= 8:
				c /= 10
			case k == mg.EvDirect:
				c *= points
			}
			total += c
		}
	}
	return total
}

// TestBoundUsesSuffixMinimum counts SOR sweeps against a bound that every
// count below eight exceeds and every count from eight on undercuts. A bound
// comparing the cost of the iteration count at hand would cut the candidate
// on its first sweep; the suffix minimum must let it run to the end.
func TestBoundUsesSuffixMinimum(t *testing.T) {
	const level = 3
	tn, err := New(Config{MaxLevel: level, Seed: 42, TrainingInstances: 2, Coster: dipping{}})
	if err != nil {
		t.Fatal(err)
	}
	probs := tn.training(level)
	step := tn.sorStep(level)
	one := &oneIter{} // the unbounded count's first step takes it
	cv := curveOf(tn.cfg.MaxSORIters, one, func(n int) float64 {
		var tr mg.OpTrace
		tr.AddScaled(one.tr, n)
		return dipping{}.Cost(&tr, 0)
	})
	want, _ := tn.count(probs, nil, step, cv, nil)
	last := want[len(want)-1]
	if last < 9 {
		t.Fatalf("SOR counted %v sweeps; the test needs the last target past the dip", want)
	}
	// The bound: what this very candidate costs at each target, but never
	// less than its dipped cost at eight sweeps — so it can tie everywhere
	// from the dip on, and is beaten at every count before it.
	best := make([]float64, len(want))
	for i := range best {
		best[i] = cv.at[max(want[i], 8)]
	}
	if !(cv.at[7] > best[len(best)-1] && cv.floor[1] <= best[0]) {
		t.Fatalf("curve does not dip under the bound: at[7]=%g floor[1]=%g best=%v", cv.at[7], cv.floor[1], best)
	}
	got, cut := tn.count(probs, nil, step, cv, best)
	if cut || !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded count = %v (cut %v), want the unbounded %v: the bound looked at the cost so far, not the cheapest still reachable", got, cut, want)
	}
}

// scheduled is a synthetic candidate for count: on training instance i its
// k-th step (from 1) leaves x at accuracy schedule[i][k−1] — the error of
// the zero state divided by it — and records one relaxation at level 2.
// Steps past the end of a schedule repeat its last entry, so a NaN entry
// poisons x for good, as a diverging step does: no accuracy is met again.
type scheduled struct {
	tn       *Tuner
	probs    []*problem.Problem
	schedule [][]float64
	steps    []int // steps run per instance
	last     int   // the instance at hand (−1: none yet in this count)
}

func newScheduled(t *testing.T, schedule ...[]float64) *scheduled {
	t.Helper()
	tn, err := New(Config{MaxLevel: 3, Seed: 42, TrainingInstances: len(schedule), Coster: arch.Harpertown()})
	if err != nil {
		t.Fatal(err)
	}
	s := &scheduled{tn: tn, schedule: schedule, steps: make([]int, len(schedule)), last: -1}
	rng := rand.New(rand.NewSource(7))
	for range schedule {
		p := &problem.Problem{N: 9, H: 1.0 / 8, Op: stencil.Poisson(), B: grid.New(9), Boundary: grid.New(9)}
		opt := p.NewState()
		grid.FillRandom(opt, grid.Unbiased, rng)
		opt.ZeroBoundary() // p.Boundary: the zero grid
		p.SetOptimal(opt)
		s.probs = append(s.probs, p)
	}
	return s
}

func (s *scheduled) step(x, b *grid.Grid, rec mg.Recorder) {
	i := slices.IndexFunc(s.probs, func(p *problem.Problem) bool { return p.B == b })
	if i != s.last {
		s.last = i
		s.steps[i] = 0
	}
	acc := s.schedule[i][min(s.steps[i], len(s.schedule[i])-1)]
	s.steps[i]++
	if rec != nil {
		rec.Record(mg.EvRelax, 2, 1)
	}
	opt := s.probs[i].Optimal()
	for j, o := range opt.Data() {
		x.Data()[j] = o - o/acc // the zero state's error, o, divided by acc
	}
}

// count runs an unstarted count of the schedule under a linear curve
// (n iterations cost n) that takes its trace from the first step, and
// returns what it counted, how many steps and accuracy tests it booked, and
// the trace it took.
func (s *scheduled) count(best []float64) (need []int, cut bool, steps, evals int64, one *oneIter) {
	before := s.tn.work
	s.last = -1
	one = &oneIter{}
	cv := curveOf(20, one, func(n int) float64 { return float64(n) })
	need, cut = s.tn.count(s.probs, nil, s.step, cv, best)
	return need, cut, s.tn.work.Steps - before.Steps, s.tn.work.AccuracyEvals - before.AccuracyEvals, one
}

// TestLostTargetStopsLaterInstances: instance 0 meets the top target only
// in the step that meets the one below, at a count (4) a competitor
// undercuts (3.5): it proves the top target too costly, so instance 1
// stops once the lower targets are met (2 steps) instead of walking on to
// where its own count prices the top out (3). A tie (4) rules out nothing.
// Either way the winners are the unbounded count's. Steps are pinned: each
// one the bound saves or wastes shows.
func TestLostTargetStopsLaterInstances(t *testing.T) {
	inf := math.Inf(1)
	schedule := [][]float64{
		{50, 2e3, 3e5, 5e9, 5e9, 5e9},  // 1e1@1 1e3@2 1e5@3 1e7,1e9@4
		{2e3, 5e7, 5e8, 2e9, 2e9, 2e9}, // 1e1,1e3@1 1e5,1e7@2 1e9@4
	}
	s := newScheduled(t, schedule...)
	want, _, wantSteps, _, _ := s.count(nil)
	if !reflect.DeepEqual(want, []int{1, 2, 3, 4, 4}) || wantSteps != 8 {
		t.Fatalf("unbounded count %v in %d steps, want [1 2 3 4 4] in 8", want, wantSteps)
	}
	for _, tc := range []struct {
		name  string
		best  []float64
		steps int64
	}{
		{"undercut", []float64{inf, inf, inf, inf, 3.5}, 4 + 2},
		{"tie", []float64{inf, inf, inf, inf, 4}, 4 + 4},
	} {
		need, cut, steps, evals, one := s.count(tc.best)
		if steps != tc.steps || evals != steps || cut != (steps < wantSteps) {
			t.Errorf("%s: %d steps, %d accuracy tests, cut %v; want %d steps, each tested", tc.name, steps, evals, cut, tc.steps)
		}
		if one.tr == nil || one.tr.Count(mg.EvRelax, 2) != 1 {
			t.Errorf("%s: the first step's trace was not taken: %+v", tc.name, one.tr)
		}
		// Select against a competitor priced at best, the lower rank: the
		// bounded count must choose what the unbounded one does.
		for i, b := range tc.best {
			price := inf
			if need[i] >= 0 {
				price = float64(need[i])
			}
			if got, w := price < b, float64(want[i]) < b; got != w {
				t.Errorf("%s: target %d goes to the candidate %v bounded, %v unbounded (counts %v vs %v)", tc.name, i, got, w, need, want)
			}
		}
	}
}

// TestFirstStepPricesBeforeItsAccuracyIsRead: a count whose curve waits for
// its trace runs the first step to take it, then checks the bound at
// iteration 0 before reading that step's accuracy: a candidate priced out
// everywhere costs one step and no accuracy test.
func TestFirstStepPricesBeforeItsAccuracyIsRead(t *testing.T) {
	s := newScheduled(t, []float64{50, 2e3, 3e5, 5e9}, []float64{50, 2e3, 3e5, 5e9})
	need, cut, steps, evals, one := s.count([]float64{0.5, 0.5, 0.5, 0.5, 0.5})
	if !cut || steps != 1 || evals != 0 || one.tr == nil || !reflect.DeepEqual(need, []int{-1, -1, -1, -1, -1}) {
		t.Fatalf("count %v (cut %v) in %d steps, %d accuracy tests, trace %v; want all −1, cut, in 1 step and no test, trace taken", need, cut, steps, evals, one.tr)
	}
}

// TestDivergingStepIsPricedOut: a step whose iterate goes NaN meets no
// target again. Its instance is counted on to the cap, or until the bound
// rules out what it has not met; what it met keeps its count, the rest is
// out of reach (−1), and a later instance stops where it stopped.
func TestDivergingStepIsPricedOut(t *testing.T) {
	s := newScheduled(t,
		[]float64{50, 2e3, math.NaN()},
		[]float64{50, 5e2, 2e3, 3e5, 5e9},
	)
	want := []int{1, 3, -1, -1, -1}
	inf := math.Inf(1)
	for _, tc := range []struct {
		name  string
		best  []float64
		steps int64
	}{
		{"to the cap", nil, 20 + 3},
		// n iterations cost n: from iteration 5 on, the targets instance 0
		// has yet to meet cost more than 5 and are lost.
		{"to the bound", []float64{inf, inf, 5, 5, 5}, 5 + 3},
	} {
		need, cut, steps, _, _ := s.count(tc.best)
		if !reflect.DeepEqual(need, want) || steps != tc.steps || cut != (tc.best != nil) {
			t.Errorf("%s: count %v (cut %v) in %d steps; want %v in %d", tc.name, need, cut, steps, want, tc.steps)
		}
	}
}

// TestWallClockTuneSurvivesDivergence: a varcoef σ = 12 tune under
// WallClock, at sizes where that operator is hard, returns a valid table.
func TestWallClockTuneSurvivesDivergence(t *testing.T) {
	for _, level := range []int{2, 3} { // MaxSize 5 and 9
		for _, seed := range []int64{1, 42} {
			tn, err := New(Config{Family: stencil.FamilyVarCoef, Eps: 12, MaxLevel: level, Seed: seed, Coster: arch.WallClock{}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tn.Tune(); err != nil {
				t.Fatalf("level %d seed %d: %v", level, seed, err)
			}
		}
	}
}
