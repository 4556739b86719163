package pbmg

import (
	"math"
	"reflect"
	"testing"
)

// TestPoisson3DSolveMeetsAccuracy is the end-to-end acceptance path: tune
// the poisson3d family up to level 5 (N=33), then solve a held-out 3D
// problem at every tuned target.
func TestPoisson3DSolveMeetsAccuracy(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson3D, 0)
	if s.Family() != FamilyPoisson3D || s.Dim() != 3 {
		t.Fatalf("solver family %v dim %d", s.Family(), s.Dim())
	}
	p, err := s.NewFamilyProblem(33, Unbiased, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p.B.Dim() != 3 {
		t.Fatalf("3D problem drew %dD grids", p.B.Dim())
	}
	Reference(p)
	for _, target := range []float64{1e1, 1e5, 1e9} {
		x := p.NewState()
		if err := s.Solve(x, p.B, target); err != nil {
			t.Fatal(err)
		}
		if got := p.AccuracyOf(x); got < target {
			t.Errorf("Solve(%g) achieved %.3g", target, got)
		}
	}
	// The V-family path and the cycle renderer must work in 3D too.
	x := p.NewState()
	if err := s.SolveV(x, p.B, 1e5); err != nil {
		t.Fatal(err)
	}
	if got := p.AccuracyOf(x); got < 1e5 {
		t.Errorf("SolveV(1e5) achieved %.3g", got)
	}
	if shape, err := s.CycleShape(33, 1e5); err != nil || shape == "" {
		t.Fatalf("CycleShape: %q, %v", shape, err)
	}
}

// TestPoisson3DTableDiffersFrom2D: the acceptance criterion that the 3D
// tuned table is genuinely different from the 2D Poisson table — the
// dynamic program re-measures under 7-point kernels and 3D costs, so the
// optimal cycle shape shifts.
func TestPoisson3DTableDiffersFrom2D(t *testing.T) {
	s2 := tuneFamily(t, FamilyPoisson, 0)
	s3 := tuneFamily(t, FamilyPoisson3D, 0)
	if reflect.DeepEqual(s2.Tuned().V.Plans, s3.Tuned().V.Plans) {
		t.Fatal("3D tuned V table is identical to the 2D one")
	}
	if s3.Tuned().Family != "poisson3d" {
		t.Fatalf("3D provenance not recorded: %q", s3.Tuned().Family)
	}
}

// TestPoisson3DRoundTripsThroughSaveLoad: a 3D configuration keeps its
// dimension across serialization and the reloaded solver still solves 3D
// problems.
func TestPoisson3DRoundTripsThroughSaveLoad(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson3D, 0)
	path := t.TempDir() + "/poisson3d.json"
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Family() != FamilyPoisson3D || back.Dim() != 3 {
		t.Fatalf("loaded solver family %v dim %d", back.Family(), back.Dim())
	}
	p, err := back.NewFamilyProblem(17, Unbiased, 3)
	if err != nil {
		t.Fatal(err)
	}
	Reference(p)
	x := p.NewState()
	if err := back.Solve(x, p.B, 1e5); err != nil {
		t.Fatal(err)
	}
	if got := p.AccuracyOf(x); got < 1e5 {
		t.Fatalf("reloaded 3D solver achieved %.3g, want ≥ 1e5", got)
	}
}

// TestPoisson3DRejects2DGrids: feeding 2D grids to a 3D solver must fail
// loudly — an error naming both shapes, before any kernel runs — not
// corrupt memory or panic.
func TestPoisson3DRejects2DGrids(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson3D, 0)
	x, b := NewGrid(33), NewGrid(33)
	if err := s.Solve(x, b, 1e5); err == nil {
		t.Fatal("3D solver accepted 2D grids")
	}
}

// TestSolveBatch3DByteIdenticalToSequential extends the serving
// determinism contract to the 3D family.
func TestSolveBatch3DByteIdenticalToSequential(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson3D, 0)
	const k = 4
	const target = 1e7
	seqStates := make([]*Grid, k)
	probs := make([]*Problem, k)
	for i := range probs {
		p, err := s.NewFamilyProblem(17, Unbiased, int64(200+i))
		if err != nil {
			t.Fatal(err)
		}
		probs[i] = p
		seqStates[i] = p.NewState()
		if err := s.Solve(seqStates[i], p.B, target); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]BatchProblem, k)
	for i := range batch {
		batch[i] = BatchProblem{X: probs[i].NewState(), B: probs[i].B}
	}
	if err := newService(s, 0, BreakerConfig{}).SolveBatch(batch, target); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		sd, bd := seqStates[i].Data(), batch[i].X.Data()
		for j, v := range sd {
			if math.Float64bits(v) != math.Float64bits(bd[j]) {
				t.Fatalf("problem %d: batch differs from sequential at %d", i, j)
			}
		}
	}
}
