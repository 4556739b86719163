package goldens

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/refsol"
	"pbmg/internal/stencil"
)

var update = flag.Bool("update", false, "rewrite testdata/goldens.json from the current code")

// The suite pins the trace-based cost model and training seed so the tuned
// tables — and hence the recorded work — are deterministic up to
// floating-point convergence drift, which the tolerance band absorbs.
const (
	goldenMachine  = "intel-harpertown"
	goldenSeed     = 1
	goldenTestSeed = 12345 // held-out problem, distinct from training seeds
)

// families under regression lockdown, each with its own tuned/measured
// level range. The ε = 0.01 anisotropic entry is one acceptance case:
// strong anisotropy defeats point smoothing, so its tuned table must differ
// structurally from the isotropic one. The poisson level-8 (N=257) and
// poisson3d level-6 (N=65) cells put the fused strokes under end-to-end
// lockdown at sizes where the pool's points gate engages; the other 2D
// families stop at level 7 to keep the suite inside CI budgets even under
// -race.
var families = []struct {
	Name     string
	Family   stencil.Family
	Eps      float64
	MinLevel int
	MaxLevel int
}{
	{"poisson", stencil.FamilyPoisson, 0, 4, 8},
	{"aniso-0.01", stencil.FamilyAnisotropic, 0.01, 4, 7},
	{"varcoef-2", stencil.FamilyVarCoef, 2, 4, 7},
	{"poisson3d", stencil.FamilyPoisson3D, 0, 3, 6},
}

// golden is the recorded work and outcome of one (family, level, accuracy)
// cell.
type golden struct {
	// Sweeps counts relaxations plus shortcut-SOR sweeps across the solve.
	Sweeps int64 `json:"sweeps"`
	// Directs counts band-Cholesky solves (any level).
	Directs int64 `json:"directs"`
	// AccExp is log10 of the achieved accuracy (informational; +Inf for
	// exact direct solves is recorded as 99).
	AccExp float64 `json:"accExp"`
}

// tuned memoizes one tuning run per family for the whole test binary. The
// three families tune concurrently on first use: each run is independent,
// and the suite must fit a CI timeout even under -race.
var (
	tunedOnce sync.Once
	tunedErr  error
	tunedMap  = map[string]*core.Tuned{}
)

func tuneOne(f stencil.Family, eps float64, maxLevel int) (*core.Tuned, error) {
	m, err := arch.ByName(goldenMachine)
	if err != nil {
		return nil, err
	}
	tuner, err := core.New(core.Config{
		MaxLevel: maxLevel,
		Family:   f,
		Eps:      eps,
		Seed:     goldenSeed,
		Coster:   m,
		// Bound suite time: four training instances and tight iteration
		// caps. Four instances (not two) because the level-8 acc1e5 plan's
		// iteration count must cover the hardest instance it will meet: the
		// tuner records the max iterations any training instance needed, and
		// with fewer instances that max undershoots the held-out problem.
		// The caps shift which candidates are feasible at the hardest cells
		// (nudging slow-converging families toward direct), which is exactly
		// what the recorded goldens lock down.
		TrainingInstances: 4,
		MaxSORIters:       200,
		MaxRecurseIters:   20,
	})
	if err != nil {
		return nil, err
	}
	return tuner.Tune()
}

func tunedFor(t *testing.T, name string) *core.Tuned {
	t.Helper()
	tunedOnce.Do(func() {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, fam := range families {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tn, err := tuneOne(fam.Family, fam.Eps, fam.MaxLevel)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && tunedErr == nil {
					tunedErr = fmt.Errorf("tune %s: %w", fam.Name, err)
					return
				}
				tunedMap[fam.Name] = tn
			}()
		}
		wg.Wait()
	})
	if tunedErr != nil {
		t.Fatal(tunedErr)
	}
	tn, ok := tunedMap[name]
	if !ok {
		t.Fatalf("no tuned bundle for %q", name)
	}
	return tn
}

// solveCell runs the tuned FULL-MULTIGRID solve for one cell on the
// held-out problem and returns the measured golden plus the achieved
// accuracy.
func solveCell(t *testing.T, tn *core.Tuned, level, accIdx int) (golden, float64) {
	t.Helper()
	op, err := tn.OperatorValue()
	if err != nil {
		t.Fatal(err)
	}
	n := grid.SizeOfLevel(level)
	ws := mg.NewWorkspace(nil, op)

	rng := rand.New(rand.NewSource(goldenTestSeed + int64(level)))
	p := problem.RandomOp(n, grid.Unbiased, rng, op.At(n))
	refsol.Attach(p, nil, nil)

	var tr mg.OpTrace
	ex := mg.Executor{WS: ws, V: tn.V, F: tn.F, Rec: &tr}
	x := p.NewState()
	ex.SolveFull(x, p.B, accIdx)

	acc := p.AccuracyOf(x)
	accExp := 99.0
	if !math.IsInf(acc, 1) {
		accExp = math.Log10(acc)
	}
	return golden{
		Sweeps:  tr.Total(mg.EvRelax) + tr.Total(mg.EvIterSolve),
		Directs: tr.Total(mg.EvDirect),
		AccExp:  math.Round(accExp*100) / 100,
	}, acc
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "goldens.json")
}

func loadGoldens(t *testing.T) map[string]golden {
	t.Helper()
	data, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatalf("read goldens (run with -update to create them): %v", err)
	}
	out := map[string]golden{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	return out
}

// TestGoldenConvergence is the regression lockdown: every family × level ×
// accuracy cell must (a) reach its target on the held-out instance and
// (b) spend an amount of work inside the tolerance band of the recorded
// golden.
func TestGoldenConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes four operator families")
	}
	measured := map[string]golden{}
	for _, fam := range families {
		tn := tunedFor(t, fam.Name)
		accs := tn.V.Acc
		for level := fam.MinLevel; level <= fam.MaxLevel; level++ {
			for i, target := range accs {
				key := fmt.Sprintf("%s/level%d/acc1e%d", fam.Name, level, int(math.Round(math.Log10(target))))
				g, acc := solveCell(t, tn, level, i)
				measured[key] = g
				if acc < target {
					t.Errorf("%s: achieved accuracy %.3g below target %.3g", key, acc, target)
				}
			}
		}
	}

	if *update {
		// encoding/json marshals map keys in sorted order, so the file is
		// deterministic and diff-friendly as is.
		data, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath(t)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(t), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(measured), goldenPath(t))
		return
	}

	want := loadGoldens(t)
	for key, g := range measured {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no recorded golden (run -update)", key)
			continue
		}
		checkBand(t, key+" sweeps", g.Sweeps, w.Sweeps)
		checkBand(t, key+" directs", g.Directs, w.Directs)
	}
	for key := range want {
		if _, ok := measured[key]; !ok {
			t.Errorf("%s: golden exists but cell was not measured (stale goldens?)", key)
		}
	}
}

// checkBand asserts got stays inside a tolerance band around the recorded
// golden, [want/2 − 2, 1.5·want + 4]: wide enough for cross-platform
// floating-point drift to shift an iteration count or two, tight enough that
// doubling the work (or skipping it) fails. The achieved-accuracy check
// stays strict.
func checkBand(t *testing.T, what string, got, want int64) {
	t.Helper()
	const slack = 2
	lo := want/2 - slack
	hi := want + want/2 + 2*slack
	if got < lo || got > hi {
		t.Errorf("%s: %d outside tolerance band [%d, %d] around golden %d", what, got, lo, hi, want)
	}
}

// TestAnisoTableDiffersFromPoisson is the acceptance criterion: tuning the
// ε = 0.01 anisotropic family must produce a V table that differs from the
// isotropic one — anisotropy genuinely changes the optimal algorithm, which
// is the point of per-family tuned tables.
func TestAnisoTableDiffersFromPoisson(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes two operator families")
	}
	pois := tunedFor(t, "poisson")
	aniso := tunedFor(t, "aniso-0.01")
	if reflect.DeepEqual(pois.V.Plans, aniso.V.Plans) {
		t.Fatal("anisotropic tuned V table is identical to the isotropic one")
	}
	if pois.Family != "poisson" || aniso.Family != "aniso" || aniso.Eps != 0.01 {
		t.Fatalf("family provenance not recorded: %q/%g and %q/%g",
			pois.Family, pois.Eps, aniso.Family, aniso.Eps)
	}
}

// TestPoisson3DTableDiffersFromPoisson is the dimension acceptance
// criterion: the 3D dynamic program — measuring under 7-point kernels and
// 3D trace costs — must land on a table that differs from the 2D Poisson
// one over their shared levels.
func TestPoisson3DTableDiffersFromPoisson(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes two operator families")
	}
	pois := tunedFor(t, "poisson")
	p3d := tunedFor(t, "poisson3d")
	if p3d.Family != "poisson3d" || p3d.MaxLevel != 6 {
		t.Fatalf("3D provenance not recorded: %q max level %d", p3d.Family, p3d.MaxLevel)
	}
	shared := p3d.MaxLevel - 1 // table rows cover levels 2..MaxLevel
	if reflect.DeepEqual(pois.V.Plans[:shared], p3d.V.Plans) {
		t.Fatal("3D tuned V table is identical to the 2D one over shared levels")
	}
}

// TestTunedConfigRoundTripsFamily: saving and loading a family-tuned bundle
// preserves the operator identity.
func TestTunedConfigRoundTripsFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes an operator family")
	}
	tn := tunedFor(t, "aniso-0.01")
	path := filepath.Join(t.TempDir(), "aniso.json")
	if err := tn.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := back.FamilyValue()
	if err != nil || f != stencil.FamilyAnisotropic || back.Eps != 0.01 {
		t.Fatalf("round trip lost family: %v, eps %g, err %v", f, back.Eps, err)
	}
	op, err := back.OperatorValue()
	if err != nil || op.Family() != stencil.FamilyAnisotropic || op.Eps() != 0.01 {
		t.Fatalf("operator reconstruction failed: %v, %v", op, err)
	}
}
