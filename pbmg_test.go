package pbmg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"pbmg/internal/core"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
)

// tuneSmall tunes a small solver on a simulated machine (deterministic and
// fast) shared by the facade tests.
func tuneSmall(t *testing.T) *Solver {
	t.Helper()
	s, err := Tune(Options{
		MaxSize:      33,
		Distribution: Unbiased,
		Machine:      "intel-harpertown",
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestTuneRejectsBadSizeAndMachine(t *testing.T) {
	if _, err := Tune(Options{MaxSize: 10}); err == nil {
		t.Fatal("non 2^k+1 size accepted")
	}
	if _, err := Tune(Options{MaxSize: 17, Machine: "pdp-11"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestSolveMeetsAccuracy(t *testing.T) {
	s := tuneSmall(t)
	p := NewProblem(33, Unbiased, 99)
	Reference(p)
	for _, target := range []float64{1e1, 1e3, 1e5} {
		x := p.NewState()
		if err := s.Solve(x, p.B, target); err != nil {
			t.Fatal(err)
		}
		if got := p.AccuracyOf(x); got < target*0.1 {
			t.Errorf("Solve(%g) achieved %.3g", target, got)
		}
		xv := p.NewState()
		if err := s.SolveV(xv, p.B, target); err != nil {
			t.Fatal(err)
		}
		if got := p.AccuracyOf(xv); got < target*0.1 {
			t.Errorf("SolveV(%g) achieved %.3g", target, got)
		}
	}
}

func TestSolveSmallerThanTunedSize(t *testing.T) {
	s := tuneSmall(t)
	p := NewProblem(17, Unbiased, 7)
	Reference(p)
	x := p.NewState()
	if err := s.Solve(x, p.B, 1e5); err != nil {
		t.Fatal(err)
	}
	if got := p.AccuracyOf(x); got < 1e4 {
		t.Fatalf("sub-size solve achieved %.3g", got)
	}
}

func TestSolveErrors(t *testing.T) {
	s := tuneSmall(t)
	p := NewProblem(65, Unbiased, 1)
	if err := s.Solve(p.NewState(), p.B, 1e5); err == nil {
		t.Fatal("grid larger than tuned size accepted")
	}
	q := NewProblem(33, Unbiased, 1)
	if err := s.Solve(q.NewState(), q.B, 1e12); err == nil {
		t.Fatal("accuracy above tuned maximum accepted")
	}
	bad := NewGrid(10)
	if err := s.Solve(bad, bad, 10); err == nil {
		t.Fatal("non 2^k+1 grid accepted")
	}
}

// TestSolveRejectsMismatchedGrids: a right-hand side that does not match the
// state, a state of the wrong dimension for the solver, or a nil grid is the
// caller's error on every entry point — returned before any kernel runs,
// never a panic, never a "successful" solve of the wrong problem — and so it
// never counts against the Service's circuit breaker.
func TestSolveRejectsMismatchedGrids(t *testing.T) {
	s := tuneSmall(t)
	svc := newService(s, 1, BreakerConfig{})
	cases := []struct {
		name string
		x, b func() *Grid
	}{
		{"b finer than x", func() *Grid { return NewGrid(17) }, func() *Grid { return NewGrid(33) }},
		{"b coarser than x", func() *Grid { return NewGrid(17) }, func() *Grid { return NewGrid(9) }},
		{"3D grids on a 2D solver", func() *Grid { return grid.NewDim(3, 17) }, func() *Grid { return grid.NewDim(3, 17) }},
		{"3D b for a 2D x", func() *Grid { return NewGrid(17) }, func() *Grid { return grid.NewDim(3, 17) }},
		{"nil x", func() *Grid { return nil }, func() *Grid { return NewGrid(17) }},
		{"nil b", func() *Grid { return NewGrid(17) }, func() *Grid { return nil }},
	}
	entries := []struct {
		name  string
		solve func(x, b *Grid) error
	}{
		{"Solve", func(x, b *Grid) error { return s.Solve(x, b, 1e3) }},
		{"SolveV", func(x, b *Grid) error { return s.SolveV(x, b, 1e3) }},
		{"SolveContext", func(x, b *Grid) error { return s.SolveContext(context.Background(), x, b, 1e3) }},
		{"SolveTraced", func(x, b *Grid) error { return s.SolveTraced(x, b, 1e3, nil) }},
		{"Service.Solve", func(x, b *Grid) error { return svc.Solve(x, b, 1e3) }},
		{"Service.SolveContext", func(x, b *Grid) error { return svc.SolveContext(context.Background(), x, b, 1e3) }},
		{"Service.SolveBatch", func(x, b *Grid) error { return svc.SolveBatch([]BatchProblem{{X: x, B: b}}, 1e3) }},
	}
	for _, tc := range cases {
		for _, e := range entries {
			t.Run(tc.name+"/"+e.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err := e.solve(tc.x(), tc.b())
				if err == nil {
					t.Fatal("mismatched grids accepted")
				}
				if errors.Is(err, ErrDiverged) || errors.Is(err, ErrPanicked) {
					t.Fatalf("mismatch reported as a solver failure: %v", err)
				}
			})
		}
	}
	for i := 0; i < 10; i++ {
		if err := svc.Solve(NewGrid(17), NewGrid(9), 1e3); err == nil {
			t.Fatal("mismatched grids accepted")
		}
		if err := svc.SolveContext(context.Background(), nil, NewGrid(17), 1e3); err == nil {
			t.Fatal("nil state accepted")
		}
	}
	if got := svc.BreakerState(); got != "closed" {
		t.Fatalf("breaker after mismatched requests = %q, want closed", got)
	}
	p := NewProblem(17, Unbiased, 3)
	if err := svc.Solve(p.NewState(), p.B, 1e3); err != nil {
		t.Fatalf("good solve after mismatched requests: %v", err)
	}

	// A batch with one nil state fails that problem alone: its siblings are
	// solved and the breaker stays closed.
	good := []*Problem{NewProblem(17, Unbiased, 4), NewProblem(17, Unbiased, 5)}
	batch := []BatchProblem{
		{X: good[0].NewState(), B: good[0].B},
		{X: nil, B: good[0].B},
		{X: good[1].NewState(), B: good[1].B},
	}
	before := svc.Metrics()
	err := svc.SolveBatch(batch, 1e3)
	if err == nil || !strings.Contains(err.Error(), "batch problem 1") {
		t.Fatalf("batch with a nil state: err = %v, want batch problem 1 to fail", err)
	}
	if strings.Contains(err.Error(), "batch problem 0") || strings.Contains(err.Error(), "batch problem 2") {
		t.Fatalf("a nil state failed its siblings: %v", err)
	}
	if m := svc.Metrics(); m.Completed != before.Completed+2 || m.Failed != before.Failed+1 || m.Panicked != 0 {
		t.Fatalf("metrics after the batch = %+v, want 2 more completed and 1 more failed, none panicked", m)
	}
	for i, j := range []int{0, 2} {
		Reference(good[i])
		if got := good[i].AccuracyOf(batch[j].X); got < 1e2 {
			t.Errorf("batch problem %d achieved %.3g beside a nil sibling", j, got)
		}
	}
	if got := svc.BreakerState(); got != "closed" {
		t.Fatalf("breaker after a batch with a nil state = %q, want closed", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := tuneSmall(t)
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Machine() != s.Machine() || loaded.MaxSize() != s.MaxSize() {
		t.Fatal("metadata lost in round trip")
	}
	p := NewProblem(33, Unbiased, 4)
	Reference(p)
	x := p.NewState()
	if err := loaded.Solve(x, p.B, 1e5); err != nil {
		t.Fatal(err)
	}
	if got := p.AccuracyOf(x); got < 1e4 {
		t.Fatalf("loaded solver achieved %.3g", got)
	}
}

func TestCycleShapeAndDescribe(t *testing.T) {
	s := tuneSmall(t)
	shape, err := s.CycleShape(33, 1e5, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shape, "|") {
		t.Fatalf("shape looks wrong:\n%s", shape)
	}
	desc, err := s.Describe(33, 1e5, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "MULTIGRID-V") {
		t.Fatalf("describe looks wrong:\n%s", desc)
	}
	fdesc, err := s.Describe(33, 1e5, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fdesc, "FULL-MG") {
		t.Fatalf("full describe looks wrong:\n%s", fdesc)
	}
	if _, err := s.CycleShape(65, 1e5, true); err == nil {
		t.Fatal("CycleShape beyond tuned size accepted")
	}
}

func TestAccuraciesAccessor(t *testing.T) {
	s := tuneSmall(t)
	accs := s.Accuracies()
	if len(accs) != 5 || accs[0] != 1e1 || accs[4] != 1e9 {
		t.Fatalf("Accuracies = %v", accs)
	}
	accs[0] = -1
	if s.Accuracies()[0] != 1e1 {
		t.Fatal("Accuracies exposes internal state")
	}
}

// TestSavedPrecisionCellsRunInFloat64: a saved table whose V cells carry
// f32 and mixed precision directives — direct and SOR cells included, which
// no reduced-precision path ever ran — still loads, and every cell runs in
// float64: Solve and SolveV give the same bits as the same table with the
// directives stripped, and meet their targets. A right-hand side past
// float32's range (≈ 3.4e38) is an ordinary float64 problem, so it solves
// with no retry. The table is poisson3d's, the one small tune whose V cells
// hold all four choices.
func TestSavedPrecisionCellsRunInFloat64(t *testing.T) {
	base := tuneFamily(t, FamilyPoisson3D, 0)
	// Private deep copies of the tuned tables via the JSON round trip: the
	// memoized solver is shared with every other test and must not be
	// mutated.
	path := filepath.Join(t.TempDir(), "tables.json")
	if err := base.Save(path); err != nil {
		t.Fatal(err)
	}
	load := func(mark bool) *Solver {
		t.Helper()
		tuned, err := core.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		// Each choice's cells alternate f32 and mixed, so two cells of a
		// choice carry both directives.
		cells := map[mg.Choice]int{}
		for _, row := range tuned.V.Plans {
			for i := range row {
				p := &row[i]
				p.Precision = mg.PrecF64
				if mark {
					p.Precision = [2]mg.Precision{mg.PrecF32, mg.PrecMixed}[cells[p.Choice]%2]
					cells[p.Choice]++
				}
			}
		}
		for _, c := range []mg.Choice{mg.ChoiceDirect, mg.ChoiceSOR, mg.ChoiceRecurse, mg.ChoiceVCycle} {
			if mark && cells[c] < 2 {
				t.Fatalf("%d %v cells marked; the test needs both directives on every choice", cells[c], c)
			}
		}
		s, err := newSolver(tuned, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	marked, plain := load(true), load(false)
	if err := marked.Save(path); err != nil {
		t.Fatal(err)
	}
	if saved, err := Load(path, 0); err != nil {
		t.Fatalf("a table with f32 and mixed cells no longer loads: %v", err)
	} else {
		saved.Close()
	}

	// same solves (x0, b) on both tables; p, when non-nil, grades the
	// answer against target.
	same := func(what string, solve func(s *Solver, x, b *Grid) error, x0, b *Grid, target float64, p *Problem) {
		t.Helper()
		got, want := x0.Clone(), x0.Clone()
		if err := solve(marked, got, b); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := solve(plain, want, b); err != nil {
			t.Fatalf("%s, directives stripped: %v", what, err)
		}
		for i, v := range got.Data() {
			if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("%s: bit %d is %v, %v with the directives stripped", what, i, v, want.Data()[i])
			}
		}
		if p != nil {
			if acc := p.AccuracyOf(got); acc < target {
				t.Errorf("%s: accuracy %.3g, want ≥ %g", what, acc, target)
			}
		}
	}
	p, err := marked.NewFamilyProblem(33, Unbiased, 7)
	if err != nil {
		t.Fatal(err)
	}
	Reference(p)
	for _, acc := range marked.Accuracies() {
		same(fmt.Sprintf("Solve at %g", acc), func(s *Solver, x, b *Grid) error { return s.Solve(x, b, acc) }, p.NewState(), p.B, acc, p)
		same(fmt.Sprintf("SolveV at %g", acc), func(s *Solver, x, b *Grid) error { return s.SolveV(x, b, acc) }, p.NewState(), p.B, acc, p)
	}

	b := grid.NewDim(3, 17)
	b.Fill(1e39)
	b.ZeroBoundary()
	same("SolveV past float32's range", func(s *Solver, x, b *Grid) error { return s.SolveV(x, b, 1e3) }, grid.NewDim(3, 17), b, 0, nil)
	if got := marked.Escalations(); got != 0 {
		t.Errorf("Escalations = %d, want 0", got)
	}
}

func TestParallelSolverMatchesSerial(t *testing.T) {
	serial := tuneSmall(t)
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := serial.Save(path); err != nil {
		t.Fatal(err)
	}
	par, err := Load(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	p := NewProblem(33, Unbiased, 6)
	xs, xp := p.NewState(), p.NewState()
	if err := serial.Solve(xs, p.B, 1e5); err != nil {
		t.Fatal(err)
	}
	if err := par.Solve(xp, p.B, 1e5); err != nil {
		t.Fatal(err)
	}
	for i := range xs.Data() {
		if xs.Data()[i] != xp.Data()[i] {
			t.Fatal("parallel solver result differs from serial")
		}
	}
}
