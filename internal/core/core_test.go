package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pbmg/internal/arch"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/refsol"
	"pbmg/internal/stencil"
)

// newModelTuner builds a fast deterministic tuner on the Harpertown model.
func newModelTuner(t *testing.T, maxLevel int, dist grid.Distribution) *Tuner {
	t.Helper()
	tn, err := New(Config{
		MaxLevel:          maxLevel,
		Distribution:      dist,
		TrainingInstances: 2,
		Seed:              42,
		Coster:            arch.Harpertown(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// testInstance returns a fresh (non-training) problem with its reference.
func testInstance(t *testing.T, level int, dist grid.Distribution, seed int64) *problem.Problem {
	t.Helper()
	p := problem.RandomOp(grid.SizeOfLevel(level), dist, rand.New(rand.NewSource(seed)), stencil.Poisson())
	refsol.Attach(p, nil, nil)
	return p
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MaxLevel: 1}); err == nil {
		t.Fatal("MaxLevel 1 accepted")
	}
	if _, err := New(Config{MaxLevel: 3, Accuracies: []float64{10, 5}}); err == nil {
		t.Fatal("descending accuracies accepted")
	}
	if _, err := New(Config{MaxLevel: 3}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestDefaultAccuracies(t *testing.T) {
	want := []float64{1e1, 1e3, 1e5, 1e7, 1e9}
	if !reflect.DeepEqual(DefaultAccuracies(), want) {
		t.Fatalf("DefaultAccuracies = %v", DefaultAccuracies())
	}
}

func TestTuneVProducesValidTable(t *testing.T) {
	tn := newModelTuner(t, 5, grid.Unbiased)
	vt, err := tn.TuneV()
	if err != nil {
		t.Fatal(err)
	}
	if vt.MaxLevel() != 5 {
		t.Fatalf("MaxLevel = %d, want 5", vt.MaxLevel())
	}
	if err := vt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTunedVMeetsAccuracyTargets(t *testing.T) {
	tn := newModelTuner(t, 5, grid.Unbiased)
	vt, err := tn.TuneV()
	if err != nil {
		t.Fatal(err)
	}
	p := testInstance(t, 5, grid.Unbiased, 777)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	ex := &mg.Executor{WS: ws, V: vt}
	for i, target := range vt.Acc {
		x := p.NewState()
		ex.SolveV(x, p.B, i)
		got := p.AccuracyOf(x)
		// Training and test instances differ; allow a modest shortfall.
		if got < target*0.1 {
			t.Errorf("accuracy index %d: achieved %.3g, target %.3g", i, got, target)
		}
	}
}

func TestTunedVUsesDirectAtCoarsestLevel(t *testing.T) {
	tn := newModelTuner(t, 4, grid.Unbiased)
	vt, err := tn.TuneV()
	if err != nil {
		t.Fatal(err)
	}
	// At N=5 a direct solve costs almost nothing under any model; the tuner
	// must discover the shortcut of Figure 1.
	for i := range vt.Acc {
		if p := vt.Plan(2, i); p.Choice != mg.ChoiceDirect {
			t.Errorf("level 2 accuracy %d: choice %v, want direct", i, p.Choice)
		}
	}
}

func TestTuningIsDeterministicUnderModelCoster(t *testing.T) {
	a, err := newModelTuner(t, 4, grid.Biased).TuneV()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newModelTuner(t, 4, grid.Biased).TuneV()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config produced different tables:\n%+v\n%+v", a, b)
	}
}

func TestTunedVBeatsOrTiesReferenceV(t *testing.T) {
	model := arch.Harpertown()
	tn := newModelTuner(t, 6, grid.Unbiased)
	vt, err := tn.TuneV()
	if err != nil {
		t.Fatal(err)
	}
	p := testInstance(t, 6, grid.Unbiased, 999)
	target := 1e5
	accIdx := 2 // 1e5 in the default ladder

	ws := mg.NewWorkspace(nil, stencil.Poisson())
	var tuned mg.OpTrace
	ex := &mg.Executor{WS: ws, V: vt, Rec: &tuned}
	xt := p.NewState()
	ex.SolveV(xt, p.B, accIdx)
	if got := p.AccuracyOf(xt); got < target*0.1 {
		t.Fatalf("tuned solve achieved %.3g, target %.3g", got, target)
	}

	var ref mg.OpTrace
	xr := p.NewState()
	ws.SolveRefV(xr, p.B, target, 100, func() float64 { return p.AccuracyOf(xr) }, &ref)

	ct, cr := model.Cost(&tuned, 0), model.Cost(&ref, 0)
	if ct > cr*1.10 {
		t.Fatalf("tuned cost %.3g exceeds reference V cost %.3g by more than 10%%", ct, cr)
	}
}

// TestFigurePricesMatchTuner: the figures price a tuned plan by running it
// with a trace and calling Model.Cost; the search priced the same plan when
// it picked it. The two must be one price — in every V cell, under every
// model — or the figures judge plans the tuner never priced the way they
// are judged.
func TestFigurePricesMatchTuner(t *testing.T) {
	for _, family := range []stencil.Family{stencil.FamilyPoisson, stencil.FamilyVarCoef} {
		for _, model := range arch.Models() {
			t.Run(family.String()+"/"+model.Name(), func(t *testing.T) {
				t.Parallel()
				tn, err := New(Config{MaxLevel: 6, Family: family, TrainingInstances: 2, Seed: 42, Coster: model})
				if err != nil {
					t.Fatal(err)
				}
				vt, err := tn.TuneV()
				if err != nil {
					t.Fatal(err)
				}
				for level := 2; level <= vt.MaxLevel(); level++ {
					p := tn.training(level)[0]
					for i, target := range vt.Acc {
						plan := vt.Plan(level, i)
						var tr mg.OpTrace
						ex := &mg.Executor{WS: tn.ws, V: vt, Rec: &tr}
						ex.SolveV(p.NewState(), p.B, i)
						got := model.Cost(&tr, 0)
						pt, ok := tn.Front(level).Best(target)
						if !ok || pt.Cost != got {
							t.Errorf("level %d acc %g (%+v): figures price %.6g, the tuner recorded %.6g", level, target, plan, got, pt.Cost)
						}
					}
				}
			})
		}
	}
}

func TestTuneFullProducesValidTableAndMeetsTargets(t *testing.T) {
	tn := newModelTuner(t, 5, grid.Biased)
	bundle, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if err := bundle.F.Validate(); err != nil {
		t.Fatal(err)
	}
	p := testInstance(t, 5, grid.Biased, 555)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	ex := &mg.Executor{WS: ws, V: bundle.V, F: bundle.F}
	for i, target := range bundle.F.Acc {
		x := p.NewState()
		ex.SolveFull(x, p.B, i)
		if got := p.AccuracyOf(x); got < target*0.1 {
			t.Errorf("full accuracy index %d: achieved %.3g, target %.3g", i, got, target)
		}
	}
}

func TestTuneBundleSaveLoad(t *testing.T) {
	tn := newModelTuner(t, 4, grid.Unbiased)
	bundle, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if bundle.Machine != "intel-harpertown" || bundle.Distribution != "unbiased" {
		t.Fatalf("bundle metadata wrong: %+v", bundle)
	}
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := bundle.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bundle.V, loaded.V) || !reflect.DeepEqual(bundle.F, loaded.F) {
		t.Fatal("save/load round trip altered the tables")
	}
}

func TestLoadRejectsMissingAndInvalid(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

// TestLoadRejectsInconsistentTables hand-corrupts a saved bundle the ways
// per-table validation cannot see. Each used to load and then panic in
// VTable.Plan / FTable.Plan on the first request that reached the missing
// cell; each must now fail Load and LoadDir with the file, the table and
// the two disagreeing values named.
func TestLoadRejectsInconsistentTables(t *testing.T) {
	bundle, err := newModelTuner(t, 4, grid.Unbiased).Tune()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(b *Tuned)
		want    []string // substrings of the error
	}{
		{"maxLevel beyond both tables", func(b *Tuned) { b.MaxLevel = 6 },
			[]string{"maxLevel 6", "V table", "level 4"}},
		{"V table short of maxLevel", func(b *Tuned) { b.V.Plans = b.V.Plans[:2] },
			[]string{"maxLevel 4", "V table", "level 3"}},
		{"F table ragged against V", func(b *Tuned) { b.F.Plans = b.F.Plans[:1] },
			[]string{"maxLevel 4", "F table", "level 2"}},
		{"f.acc value differs from v.acc", func(b *Tuned) { b.F.Acc[2] = 2e5 },
			[]string{"F table acc[2] = 200000", "V table acc[2] = 100000"}},
		{"f.acc shorter than v.acc", func(b *Tuned) {
			b.F.Acc = b.F.Acc[:4]
			for i := range b.F.Plans {
				b.F.Plans[i] = b.F.Plans[i][:4]
			}
		}, []string{"F table has 4 accuracy targets", "V table 5"}},
		{"maxLevel missing", func(b *Tuned) { b.MaxLevel = 0 },
			[]string{"maxLevel 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A deep copy through JSON, as a hand-edited file would be.
			data, err := json.Marshal(bundle)
			if err != nil {
				t.Fatal(err)
			}
			var b Tuned
			if err := json.Unmarshal(data, &b); err != nil {
				t.Fatal(err)
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("pristine copy invalid: %v", err)
			}
			tc.corrupt(&b)
			dir := t.TempDir()
			path := filepath.Join(dir, "poisson.json")
			if err := b.Save(path); err != nil {
				t.Fatal(err)
			}
			_, loadErr := Load(path)
			_, dirErr := LoadDir(dir)
			for _, err := range []error{loadErr, dirErr} {
				if err == nil {
					t.Fatal("corrupted bundle loaded")
				}
				for _, want := range append(tc.want, path) {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %q", err, want)
					}
				}
			}
		})
	}
}

func TestHeuristicTables(t *testing.T) {
	tn := newModelTuner(t, 5, grid.Biased)
	for _, sub := range []float64{1e1, 1e3, 1e9} {
		vt, err := tn.TuneHeuristic(sub, 1e9)
		if err != nil {
			t.Fatalf("heuristic %g: %v", sub, err)
		}
		p := testInstance(t, 5, grid.Biased, 31337)
		ws := mg.NewWorkspace(nil, stencil.Poisson())
		ex := &mg.Executor{WS: ws, V: vt}
		x := p.NewState()
		ex.SolveV(x, p.B, len(vt.Acc)-1)
		if got := p.AccuracyOf(x); got < 1e9*0.1 {
			t.Errorf("heuristic %s achieved %.3g, want ≈1e9", HeuristicName(sub, 1e9), got)
		}
	}
	if _, err := tn.TuneHeuristic(1e9, 1e5); err == nil {
		t.Fatal("sub-accuracy above top accepted")
	}
}

func TestHeuristicName(t *testing.T) {
	if got := HeuristicName(1e3, 1e9); got != "10^3/10^9" {
		t.Fatalf("HeuristicName = %q", got)
	}
	if got := HeuristicName(1e9, 1e9); got != "10^9" {
		t.Fatalf("HeuristicName = %q", got)
	}
}

func TestFrontPopulatedAndNonDominated(t *testing.T) {
	tn := newModelTuner(t, 4, grid.Unbiased)
	if _, err := tn.TuneV(); err != nil {
		t.Fatal(err)
	}
	for level := 2; level <= 4; level++ {
		f := tn.Front(level)
		if f == nil || f.Len() == 0 {
			t.Fatalf("level %d: empty Pareto front", level)
		}
		pts := f.Points()
		for i := range pts {
			for j := range pts {
				if i != j && dominates(pts[i], pts[j]) {
					t.Fatalf("level %d: front contains dominated point %+v < %+v", level, pts[j], pts[i])
				}
			}
		}
	}
}

func TestParetoFrontBasics(t *testing.T) {
	var f ParetoFront[mg.Plan]
	if !f.Add(ParetoPoint[mg.Plan]{Accuracy: 10, Cost: 5}) {
		t.Fatal("first point rejected")
	}
	if f.Add(ParetoPoint[mg.Plan]{Accuracy: 9, Cost: 6}) {
		t.Fatal("dominated point accepted")
	}
	if !f.Add(ParetoPoint[mg.Plan]{Accuracy: 100, Cost: 50}) {
		t.Fatal("non-dominated point rejected")
	}
	if !f.Add(ParetoPoint[mg.Plan]{Accuracy: 100, Cost: 3}) {
		t.Fatal("dominating point rejected")
	}
	// The last point dominates both earlier ones.
	if f.Len() != 1 {
		t.Fatalf("front size = %d, want 1", f.Len())
	}
	best, ok := f.Best(50)
	if !ok || best.Cost != 3 {
		t.Fatalf("Best(50) = %+v, %v", best, ok)
	}
	if _, ok := f.Best(1e6); ok {
		t.Fatal("Best above max accuracy should fail")
	}
}

// Property: a ParetoFront never contains a dominated pair, regardless of
// insertion order.
func TestParetoInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var front ParetoFront[mg.Plan]
		for i := 0; i < 50; i++ {
			front.Add(ParetoPoint[mg.Plan]{
				Accuracy: math.Exp(rng.Float64() * 20),
				Cost:     math.Exp(rng.Float64() * 10),
			})
		}
		pts := front.Points()
		for i := range pts {
			for j := range pts {
				if i != j && dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		// Points must be sorted by accuracy, and therefore (being
		// non-dominated) by descending cost.
		for i := 1; i < len(pts); i++ {
			if pts[i].Accuracy < pts[i-1].Accuracy || pts[i].Cost < pts[i-1].Cost == false {
				// ascending accuracy must come with ascending cost
				if pts[i].Cost <= pts[i-1].Cost {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountItersInfeasibleMarking(t *testing.T) {
	tn := newModelTuner(t, 4, grid.Unbiased)
	probs := tn.training(3)
	// A step that does nothing can never reach any target.
	noop := func(x, b *grid.Grid, rec mg.Recorder) {}
	flat := curveOf(5, nil, func(n int) float64 { return float64(n) })
	iters, cut := tn.count(probs, nil, noop, flat, nil)
	for i, v := range iters {
		if v != -1 {
			t.Fatalf("target %d counted %d iters for a no-op step", i, v)
		}
	}
	if cut {
		t.Fatal("an unbounded count reported a cut")
	}
	// The first instance already lost every target at the cap, so the
	// second is not run at all.
	if got := tn.spent().Steps; got != 5 {
		t.Fatalf("no-op step ran %d times, want 5 (one instance to the cap)", got)
	}
}

func TestWallClockTuningSmall(t *testing.T) {
	// A tiny end-to-end wall-clock tuning run: just checks it completes and
	// produces a valid, accurate table under real timing.
	tn, err := New(Config{
		MaxLevel:          4,
		Distribution:      grid.Unbiased,
		TrainingInstances: 2,
		Seed:              7,
		Coster:            arch.WallClock{},
	})
	if err != nil {
		t.Fatal(err)
	}
	vt, err := tn.TuneV()
	if err != nil {
		t.Fatal(err)
	}
	p := testInstance(t, 4, grid.Unbiased, 123)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	ex := &mg.Executor{WS: ws, V: vt}
	x := p.NewState()
	ex.SolveV(x, p.B, len(vt.Acc)-1)
	if got := p.AccuracyOf(x); got < 1e8 {
		t.Fatalf("wall-clock tuned solve achieved %.3g, want ≈1e9", got)
	}
}
