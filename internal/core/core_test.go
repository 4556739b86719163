package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

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

// tunedV runs tn's tune and returns its V table.
func tunedV(t *testing.T, tn *Tuner) *mg.VTable {
	t.Helper()
	b, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	return b.V
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
	vt := tunedV(t, tn)
	if vt.MaxLevel() != 5 {
		t.Fatalf("MaxLevel = %d, want 5", vt.MaxLevel())
	}
	if err := vt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTunedVMeetsAccuracyTargets(t *testing.T) {
	tn := newModelTuner(t, 5, grid.Unbiased)
	vt := tunedV(t, tn)
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
	vt := tunedV(t, tn)
	// At N=5 a direct solve costs almost nothing under any model; the tuner
	// must discover the shortcut of Figure 1.
	for i := range vt.Acc {
		if p := vt.Plan(2, i); p.Choice != mg.ChoiceDirect {
			t.Errorf("level 2 accuracy %d: choice %v, want direct", i, p.Choice)
		}
	}
}

func TestTuningIsDeterministicUnderModelCoster(t *testing.T) {
	a, err := newModelTuner(t, 4, grid.Biased).Tune()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newModelTuner(t, 4, grid.Biased).Tune()
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
	vt := tunedV(t, tn)
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
// with a trace and calling Model.Cost; the search priced the same plan, with
// measure or measureFull, when it picked it. The two must be one price — in
// every V and FULL cell, under every model — or the figures judge plans the
// tuner never priced the way they are judged. A FULL cell that runs its V
// cell (mg.FullV) is priced as that V cell.
func TestFigurePricesMatchTuner(t *testing.T) {
	for _, family := range []stencil.Family{stencil.FamilyPoisson, stencil.FamilyVarCoef} {
		for _, model := range arch.Models() {
			t.Run(family.String()+"/"+model.Name(), func(t *testing.T) {
				t.Parallel()
				tn, err := New(Config{MaxLevel: 6, Family: family, TrainingInstances: 2, Seed: 42, Coster: model})
				if err != nil {
					t.Fatal(err)
				}
				b, err := tn.Tune()
				if err != nil {
					t.Fatal(err)
				}
				vt, ft := b.V, b.F
				// figurePrice is Model.Cost of the trace of one solve.
				figurePrice := func(solve func(ex *mg.Executor)) float64 {
					var tr mg.OpTrace
					solve(&mg.Executor{WS: tn.ws, V: vt, F: ft, Rec: &tr})
					return model.Cost(&tr, 0)
				}
				for level := 2; level <= vt.MaxLevel(); level++ {
					probs := tn.training(level)
					x, rhs := probs[0].NewState, probs[0].B
					cands := tn.vCandidates(vt, level)
					priced := map[int]measured{} // the search's price of each winner
					vprice := make([]float64, len(vt.Acc))
					for i, target := range vt.Acc {
						plan := vt.Plan(level, i)
						c := slices.IndexFunc(cands, func(c candidate) bool {
							return c.plan.Choice == plan.Choice && c.plan.Sub == plan.Sub
						})
						if c < 0 {
							t.Fatalf("level %d acc %g: %+v is no candidate of the level", level, target, plan)
						}
						m, ok := priced[c]
						if !ok {
							m = tn.measure(level, cands[c], probs, nil)
							priced[c] = m
						}
						if got := withIters(m, i); got != plan {
							t.Fatalf("level %d acc %g: measure gives %+v, the table holds %+v", level, target, got, plan)
						}
						vprice[i] = m.costPerAcc[i]
						if got := figurePrice(func(ex *mg.Executor) { ex.SolveV(x(), rhs, i) }); got != vprice[i] {
							t.Errorf("level %d acc %g (V %v): figures price %.6g, the tuner priced %.6g", level, target, plan, got, vprice[i])
						}
					}
					fcands := tn.fullCandidates(vt, ft, level, probs)
					fpriced := map[int]measuredFull{}
					for i, target := range ft.Acc {
						plan := ft.Plan(level, i)
						want := vprice[i]
						if plan.Choice != mg.FullV {
							c := slices.IndexFunc(fcands, func(c fullCandidate) bool {
								p := c.plan
								return p.Choice == plan.Choice && p.EstAcc == plan.EstAcc && p.Solve == plan.Solve && p.SolveSub == plan.SolveSub
							})
							if c < 0 {
								t.Fatalf("level %d acc %g: %+v is no FULL candidate of the level", level, target, plan)
							}
							m, ok := fpriced[c]
							if !ok {
								m = tn.measureFull(level, fcands[c], probs, nil)
								fpriced[c] = m
							}
							if got := withFullIters(m, i); got != plan {
								t.Fatalf("level %d acc %g: measureFull gives %+v, the table holds %+v", level, target, got, plan)
							}
							want = m.costPerAcc[i]
						}
						if got := figurePrice(func(ex *mg.Executor) { ex.SolveFull(x(), rhs, i) }); got != want {
							t.Errorf("level %d acc %g (full %v): figures price %.6g, the tuner priced %.6g", level, target, plan, got, want)
						}
					}
				}
			})
		}
	}
}

// TestFullNeverDearerThanV: Solve runs the FULL table, so a FULL cell
// priced above its level's V cell would serve a dearer solve than one the
// tuner already holds. In every benchmark table (internal/goldens'
// tables.txt, which prices each cell) and in fresh small tunes of three
// families under every model, each FULL cell's price — Model.Cost of the
// trace of its solve — is at most its V cell's.
func TestFullNeverDearerThanV(t *testing.T) {
	t.Run("tables.txt", func(t *testing.T) {
		data, err := os.ReadFile(filepath.Join("..", "goldens", "testdata", "tables.txt"))
		if err != nil {
			t.Fatal(err)
		}
		prices := func(cells string) []float64 {
			var out []float64
			for _, cell := range strings.Split(cells, ", ") {
				_, price, _ := strings.Cut(cell, " ")
				v, err := strconv.ParseFloat(price, 64)
				if err != nil {
					t.Fatalf("cell %q: %v", cell, err)
				}
				out = append(out, v)
			}
			return out
		}
		v := map[string][]float64{}
		full := 0
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if head, cells, ok := strings.Cut(line, " V: "); ok {
				v[head] = prices(cells)
				continue
			}
			head, cells, ok := strings.Cut(line, " full: ")
			if !ok {
				t.Fatalf("malformed line %q", line)
			}
			vp, ok := v[head]
			if !ok {
				t.Fatalf("%s: full line before its V line", head)
			}
			for i, fp := range prices(cells) {
				if fp > vp[i] {
					t.Errorf("%s, accuracy index %d: FULL cell %.6g, V cell %.6g", head, i, fp, vp[i])
				}
				full++
			}
		}
		if full == 0 {
			t.Fatal("no FULL cell read")
		}
	})
	for _, family := range []stencil.Family{stencil.FamilyPoisson, stencil.FamilyVarCoef, stencil.FamilyPoisson3D} {
		for _, model := range arch.Models() {
			t.Run(family.String()+"/"+model.Name(), func(t *testing.T) {
				t.Parallel()
				maxLevel := 5
				if family.Dim() == 3 {
					maxLevel = 4
				}
				tn, err := New(Config{MaxLevel: maxLevel, Family: family, TrainingInstances: 2, Seed: 42, Coster: model})
				if err != nil {
					t.Fatal(err)
				}
				b, err := tn.Tune()
				if err != nil {
					t.Fatal(err)
				}
				coster := arch.ForDim(model, family.Dim())
				for level := 2; level <= b.MaxLevel; level++ {
					n := grid.SizeOfLevel(level)
					price := func(solve func(ex *mg.Executor, x, b *grid.Grid)) float64 {
						var tr mg.OpTrace
						solve(&mg.Executor{WS: tn.ws, V: b.V, F: b.F, Rec: &tr}, grid.NewDim(family.Dim(), n), grid.NewDim(family.Dim(), n))
						return coster.Cost(&tr, 0)
					}
					for i := range b.V.Acc {
						vp := price(func(ex *mg.Executor, x, rhs *grid.Grid) { ex.SolveV(x, rhs, i) })
						fp := price(func(ex *mg.Executor, x, rhs *grid.Grid) { ex.SolveFull(x, rhs, i) })
						if fp > vp {
							t.Errorf("level %d acc %g: FULL cell %v costs %.6g, V cell %v %.6g", level, b.V.Acc[i], b.F.Plan(level, i), fp, b.V.Plan(level, i), vp)
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
		{"no F table", func(b *Tuned) { b.F = nil },
			[]string{"no F table"}},
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
	vt := tunedV(t, tn)
	p := testInstance(t, 4, grid.Unbiased, 123)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	ex := &mg.Executor{WS: ws, V: vt}
	x := p.NewState()
	ex.SolveV(x, p.B, len(vt.Acc)-1)
	if got := p.AccuracyOf(x); got < 1e8 {
		t.Fatalf("wall-clock tuned solve achieved %.3g, want ≈1e9", got)
	}
}
