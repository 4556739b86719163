package pbmg

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pbmg/internal/grid"
)

// tuneRegistry builds a registry serving the 2D Poisson family (N ≤ 33) and
// the 3D Poisson family (N ≤ 17), tuned on the deterministic simulated
// machine and loaded the way a server loads its catalog.
func tuneRegistry(t *testing.T, o RegistryOptions) *Registry {
	t.Helper()
	return loadRegistry(t, o,
		Options{MaxSize: 33, Family: FamilyPoisson, Machine: "intel-harpertown", Seed: 5},
		Options{MaxSize: 17, Family: FamilyPoisson3D, Machine: "intel-harpertown", Seed: 5})
}

// loadRegistry tunes one configuration per option set, saves each into one
// directory, and loads that directory into a new registry, which registers
// the families in the order given.
func loadRegistry(t *testing.T, o RegistryOptions, tunes ...Options) *Registry {
	t.Helper()
	r := NewRegistry(o)
	t.Cleanup(r.Close)
	if _, err := r.LoadDir(tunedDir(t, tunes...)); err != nil {
		t.Fatal(err)
	}
	return r
}

// tunedDir tunes and saves each option set as <index>-<family>.json in a
// fresh directory, so LoadDir's filename order is the order given.
func tunedDir(t *testing.T, tunes ...Options) string {
	t.Helper()
	dir := t.TempDir()
	for i, o := range tunes {
		s, err := Tune(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Save(filepath.Join(dir, fmt.Sprintf("%d-%s.json", i, o.Family))); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// services looks up every served family's service, in registration order.
func services(t *testing.T, r *Registry) []*Service {
	t.Helper()
	var out []*Service
	for _, k := range r.Keys() {
		svc, err := r.Lookup(k.Family, k.Epsilon)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, svc)
	}
	return out
}

// assertBitIdentical fails unless two grids match bit for bit.
func assertBitIdentical(t *testing.T, want, got *Grid, label string) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	for j, v := range wd {
		if math.Float64bits(v) != math.Float64bits(gd[j]) {
			t.Fatalf("%s: concurrent result differs from sequential at index %d", label, j)
		}
	}
}

// TestRegistryServesTwoFamiliesConcurrently is the multi-family serving
// contract under -race: one registry, one shared pool, one global admission
// limit, 8 goroutines split across a 2D and a 3D family — and every
// concurrent result is byte-identical to the same solve run sequentially.
func TestRegistryServesTwoFamiliesConcurrently(t *testing.T) {
	r := tuneRegistry(t, RegistryOptions{Workers: 4, MaxInFlight: 4})

	const goroutines = 8
	const perG = 3
	const target = 1e5
	type req struct {
		family Family
		n      int
		p      *Problem
		seq    *Grid // sequential reference result
	}
	reqs := make([][]req, goroutines)
	for g := 0; g < goroutines; g++ {
		family, n := FamilyPoisson, 33
		if g%2 == 1 {
			family, n = FamilyPoisson3D, 17
		}
		svc, err := r.Lookup(family, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perG; i++ {
			p, err := svc.Solver().NewFamilyProblem(n, Unbiased, int64(1000+g*perG+i))
			if err != nil {
				t.Fatal(err)
			}
			// Sequential baseline, off the service so it stays out of the
			// serving metrics.
			seq := p.NewState()
			if err := svc.Solver().Solve(seq, p.B, target); err != nil {
				t.Fatal(err)
			}
			reqs[g] = append(reqs[g], req{family: family, n: n, p: p, seq: seq})
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, rq := range reqs[g] {
				x := rq.p.NewState()
				if err := r.Solve(rq.family, 0, x, rq.p.B, target); err != nil {
					t.Errorf("goroutine %d solve %d: %v", g, i, err)
					return
				}
				assertBitIdentical(t, rq.seq, x, rq.family.String())
			}
		}(g)
	}
	wg.Wait()

	m := r.Metrics()
	if len(m.Families) != 2 {
		t.Fatalf("Metrics reports %d families, want 2", len(m.Families))
	}
	wantPer := int64(goroutines / 2 * perG)
	for _, fm := range m.Families {
		if fm.Completed != wantPer || fm.Admitted != wantPer || fm.Failed != 0 || fm.Shed != 0 {
			t.Errorf("family %s metrics = %+v, want %d admitted+completed", fm.Key, fm.ServiceMetrics, wantPer)
		}
		if fm.InFlight != 0 {
			t.Errorf("family %s still reports %d in flight after drain", fm.Key, fm.InFlight)
		}
	}
	if m.Aggregate.Completed != 2*wantPer {
		t.Errorf("aggregate completed = %d, want %d", m.Aggregate.Completed, 2*wantPer)
	}
	if m.Unroutable != 0 {
		t.Errorf("unroutable = %d, want 0", m.Unroutable)
	}
}

// TestRegistryFactorsOnceOverFiniteKeys: the shared factor cache needs no
// bound because its keys are finite. Serving every tuned size of both
// families at every tuned accuracy, through FULL-MULTIGRID and V alike,
// factors at most one matrix per (family, level); serving it all again
// factors nothing.
func TestRegistryFactorsOnceOverFiniteKeys(t *testing.T) {
	r := tuneRegistry(t, RegistryOptions{Workers: 2})
	maxLevels := 0
	for _, svc := range services(t, r) {
		maxLevels += grid.Level(svc.Solver().MaxSize())
	}
	serveAll := func(pass int) {
		for _, svc := range services(t, r) {
			s := svc.Solver()
			solveV := func(x, b *Grid, acc float64) error {
				return svc.admit(context.Background(), false, func() error { return s.SolveV(x, b, acc) })
			}
			for n := 3; n <= s.MaxSize(); n = 2*n - 1 {
				for i, acc := range s.Accuracies() {
					p, err := s.NewFamilyProblem(n, Unbiased, int64(100*n+i))
					if err != nil {
						t.Fatal(err)
					}
					for _, solve := range []func(x, b *Grid, acc float64) error{svc.Solve, solveV} {
						if err := solve(p.NewState(), p.B, acc); err != nil {
							t.Fatalf("pass %d: %s N=%d accuracy %g: %v", pass, svc.Key(), n, acc, err)
						}
					}
				}
			}
		}
	}
	serveAll(1)
	factored, held := r.cache.Factorizations(), r.cache.Len()
	if factored != int64(held) || held > maxLevels || held == 0 {
		t.Fatalf("first pass: %d factorizations, %d held, want equal, nonzero and ≤ Σ MaxLevel = %d", factored, held, maxLevels)
	}
	t.Logf("first pass: %d factorizations, Σ MaxLevel = %d", factored, maxLevels)
	serveAll(2)
	if got := r.cache.Factorizations(); got != factored {
		t.Fatalf("second pass factored %d more matrices, want 0", got-factored)
	}
}

// TestRegistryRoutingAndMismatch: requests route by (family, ε) with the
// same semantics as the CLI mismatch checks — eps ignored for parameterless
// families, family defaults resolved, misses counted and explained.
func TestRegistryRoutingAndMismatch(t *testing.T) {
	r := loadRegistry(t, RegistryOptions{},
		Options{MaxSize: 17, Family: FamilyPoisson, Machine: "intel-harpertown", Seed: 5},
		Options{MaxSize: 17, Family: FamilyAnisotropic, Epsilon: 0.25, Machine: "intel-harpertown", Seed: 5})

	if _, err := r.Lookup(FamilyPoisson, 0); err != nil {
		t.Fatalf("Lookup(poisson, 0): %v", err)
	}
	// Parameterless families ignore eps, as CheckFamilyFlags does.
	if _, err := r.Lookup(FamilyPoisson, 123); err != nil {
		t.Fatalf("Lookup(poisson, 123): %v", err)
	}
	if _, err := r.Lookup(FamilyAnisotropic, 0.25); err != nil {
		t.Fatalf("Lookup(aniso, 0.25): %v", err)
	}

	// eps 0 resolves to the family default (0.1), which is not served.
	if _, err := r.Lookup(FamilyAnisotropic, 0); err == nil {
		t.Fatal("Lookup(aniso, default) matched a 0.25-tuned table")
	} else if !strings.Contains(err.Error(), "0.25") {
		t.Fatalf("eps-mismatch error does not name the served eps: %v", err)
	}
	// A family that is not served at all lists the catalog.
	if err := r.Solve(FamilyVarCoef, 0, NewGrid(17), NewGrid(17), 1e3); err == nil {
		t.Fatal("Solve(varcoef) routed despite no varcoef table")
	} else if !strings.Contains(err.Error(), "poisson") || !strings.Contains(err.Error(), "aniso:0.25") {
		t.Fatalf("catalog error incomplete: %v", err)
	}
	if got := r.Metrics().Unroutable; got != 2 {
		t.Fatalf("Unroutable = %d, want 2", got)
	}

	// A second load that collides on a served key must be rejected.
	dup := tunedDir(t, Options{MaxSize: 9, Family: FamilyPoisson, Machine: "intel-harpertown", Seed: 5})
	if _, err := r.LoadDir(dup); err == nil {
		t.Fatal("duplicate poisson registration accepted")
	} else if !strings.Contains(err.Error(), "already serves family poisson") {
		t.Fatalf("collision error does not name the family: %v", err)
	}

	keys := r.Keys()
	if len(keys) != 2 || keys[0].String() != "poisson" || keys[1].String() != "aniso:0.25" {
		t.Fatalf("Keys() = %v", keys)
	}
}

// TestRegistryLoadDir: a directory of tuned-table JSON files (one per
// family, as mgtune writes them) becomes a serving catalog; bad files fail
// loudly.
func TestRegistryLoadDir(t *testing.T) {
	dir := t.TempDir()
	if err := tuneFamily(t, FamilyPoisson, 0).Save(filepath.Join(dir, "poisson.json")); err != nil {
		t.Fatal(err)
	}
	if err := tuneFamily(t, FamilyAnisotropic, 0.25).Save(filepath.Join(dir, "aniso.json")); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(RegistryOptions{})
	t.Cleanup(r.Close)
	services, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(services) != 2 {
		t.Fatalf("LoadDir registered %d services, want 2", len(services))
	}
	for _, f := range []Family{FamilyPoisson, FamilyAnisotropic} {
		svc, err := r.Lookup(f, 0.25) // eps ignored for poisson, exact for aniso
		if err != nil {
			t.Fatal(err)
		}
		p, err := svc.Solver().NewFamilyProblem(17, Unbiased, 7)
		if err != nil {
			t.Fatal(err)
		}
		Reference(p)
		x := p.NewState()
		if err := svc.Solve(x, p.B, 1e3); err != nil {
			t.Fatal(err)
		}
		if got := p.AccuracyOf(x); got < 1e2 {
			t.Errorf("family %s served accuracy %.3g", f, got)
		}
	}

	// Re-loading the same directory collides on every key.
	if _, err := r.LoadDir(dir); err == nil {
		t.Fatal("duplicate LoadDir accepted")
	}

	// A directory with a broken config must fail as a whole — atomically:
	// the good configuration next to it must NOT be registered, so fixing
	// the bad file and retrying works instead of colliding forever.
	bad := t.TempDir()
	if err := tuneFamily(t, FamilyPoisson, 0).Save(filepath.Join(bad, "poisson.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "zbroken.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(RegistryOptions{})
	t.Cleanup(r2.Close)
	if _, err := r2.LoadDir(bad); err == nil {
		t.Fatal("LoadDir accepted a broken configuration")
	}
	if got := r2.Keys(); len(got) != 0 {
		t.Fatalf("failed LoadDir left %v registered, want nothing", got)
	}
	if err := os.Remove(filepath.Join(bad, "zbroken.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.LoadDir(bad); err != nil {
		t.Fatalf("LoadDir retry after fixing the directory: %v", err)
	}
	if _, err := r2.LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir accepted an empty directory")
	}
}

// TestRegistryLoadDirRejectsInconsistentBundle: a bundle whose maxLevel
// exceeds its tables' rows passes every per-table check; it must be refused
// at LoadDir (and Load) with the file and the cell named, registering
// nothing, instead of panicking in VTable.Plan on the first N=33 request.
func TestRegistryLoadDirRejectsInconsistentBundle(t *testing.T) {
	dir := t.TempDir()
	if err := tuneFamily(t, FamilyAnisotropic, 0.25).Save(filepath.Join(dir, "aniso.json")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "poisson.json")
	if err := tuneFamily(t, FamilyPoisson, 0).Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(good, []byte(`"maxLevel": 5`), []byte(`"maxLevel": 6`), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("poisson table does not carry maxLevel 5; fix the test's corruption")
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(RegistryOptions{})
	t.Cleanup(r.Close)
	_, dirErr := r.LoadDir(dir)
	_, loadErr := Load(path, 0)
	for _, err := range []error{dirErr, loadErr} {
		if err == nil {
			t.Fatal("inconsistent bundle accepted")
		}
		for _, want := range []string{path, "maxLevel 6", "V table", "level 5"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
	if got := r.Keys(); len(got) != 0 {
		t.Fatalf("refused LoadDir left %v registered, want nothing", got)
	}
}

// TestRegistrySolveBatchUsesGlobalAdmission: a family's SolveBatch runs
// behind the registry's global admission limit and shows up in the registry
// metrics.
func TestRegistrySolveBatchUsesGlobalAdmission(t *testing.T) {
	r := loadRegistry(t, RegistryOptions{MaxInFlight: 3},
		Options{MaxSize: 17, Family: FamilyPoisson, Machine: "intel-harpertown", Seed: 5})
	svc, err := r.Lookup(FamilyPoisson, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.fam.a.globalCap(); got != 3 {
		t.Fatalf("family service MaxInFlight = %d, want the global 3", got)
	}
	batch := make([]BatchProblem, 6)
	for i := range batch {
		p := NewProblem(17, Unbiased, int64(700+i))
		batch[i] = BatchProblem{X: p.NewState(), B: p.B}
	}
	if err := svc.SolveBatch(batch, 1e3); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics().Aggregate.Completed; got != 6 {
		t.Fatalf("registry metrics missed batch solves: completed = %d, want 6", got)
	}
}
