package pbmg

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// tuneFamily tunes a small family solver on the deterministic simulated
// machine, memoizing per (family, ε) for the whole test binary: tuning is
// deterministic and the pool-less solvers are immutable and cheap to keep,
// while re-tuning under -race dominates the suite otherwise.
var (
	tunedMu  sync.Mutex
	tunedMap = map[string]*Solver{}
)

func tuneFamily(t *testing.T, f Family, eps float64) *Solver {
	t.Helper()
	key := fmt.Sprintf("%v/%g", f, eps)
	tunedMu.Lock()
	defer tunedMu.Unlock()
	if s, ok := tunedMap[key]; ok {
		return s
	}
	s, err := Tune(Options{
		MaxSize:      33,
		Family:       f,
		Epsilon:      eps,
		Distribution: Unbiased,
		Machine:      "intel-harpertown",
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tunedMap[key] = s
	return s
}

// TestFamilySolveMeetsAccuracy: family-tuned solvers must reach their
// targets on family-matched problems, graded against a family-aware
// reference solution.
func TestFamilySolveMeetsAccuracy(t *testing.T) {
	for _, tc := range []struct {
		f   Family
		eps float64
	}{
		{FamilyAnisotropic, 0.01},
		{FamilyVarCoef, 2},
	} {
		s := tuneFamily(t, tc.f, tc.eps)
		if s.Family() != tc.f || s.Epsilon() != tc.eps {
			t.Fatalf("solver reports family %v eps %g, want %v %g",
				s.Family(), s.Epsilon(), tc.f, tc.eps)
		}
		p, err := s.NewFamilyProblem(33, Unbiased, 99)
		if err != nil {
			t.Fatal(err)
		}
		Reference(p)
		for _, target := range []float64{1e1, 1e5, 1e9} {
			x := p.NewState()
			if err := s.Solve(x, p.B, target); err != nil {
				t.Fatal(err)
			}
			if got := p.AccuracyOf(x); got < target {
				t.Errorf("%v: Solve(%g) achieved %.3g", tc.f, target, got)
			}
		}
	}
}

// TestFamilyRoundTripsThroughSaveLoad: a family-tuned configuration keeps
// its operator identity across serialization, and the reloaded solver still
// solves its family.
func TestFamilyRoundTripsThroughSaveLoad(t *testing.T) {
	s := tuneFamily(t, FamilyAnisotropic, 0.25)
	path := t.TempDir() + "/aniso.json"
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Family() != FamilyAnisotropic || back.Epsilon() != 0.25 {
		t.Fatalf("loaded solver family %v eps %g", back.Family(), back.Epsilon())
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
		t.Fatalf("reloaded solver achieved %.3g, want ≥ 1e5", got)
	}
}

// TestNewFamilyProblemRejectsBadInput covers the public constructor's error
// paths.
func TestNewFamilyProblemRejectsBadInput(t *testing.T) {
	if _, err := NewFamilyProblem(33, Unbiased, 1, FamilyAnisotropic, -2); err == nil {
		t.Fatal("negative ε accepted")
	}
	if _, err := NewFamilyProblem(10, Unbiased, 1, FamilyVarCoef, 2); err == nil {
		t.Fatal("non 2^k+1 varcoef size accepted")
	}
	s := tuneFamily(t, FamilyAnisotropic, 0.25)
	if _, err := s.NewFamilyProblem(65, Unbiased, 1); err == nil {
		t.Fatal("problem beyond the tuned size accepted")
	}
}

// TestSolveBatchByteIdenticalToSequential: batching is a scheduling
// construct, not a numerical one — every solve must produce exactly the
// bits the sequential path produces, for constant and variable-coefficient
// families alike.
func TestSolveBatchByteIdenticalToSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Family
		eps  float64
	}{
		{"poisson", FamilyPoisson, 0},
		{"varcoef", FamilyVarCoef, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tuneFamily(t, tc.f, tc.eps)
			const k = 6
			const target = 1e7

			seq := make([]*Problem, k)
			seqStates := make([]*Grid, k)
			for i := range seq {
				p, err := s.NewFamilyProblem(33, Unbiased, int64(100+i))
				if err != nil {
					t.Fatal(err)
				}
				seq[i] = p
				seqStates[i] = p.NewState()
				if err := s.Solve(seqStates[i], p.B, target); err != nil {
					t.Fatal(err)
				}
			}

			batch := make([]BatchProblem, k)
			for i := range batch {
				batch[i] = BatchProblem{X: seq[i].NewState(), B: seq[i].B}
			}
			if err := s.NewService(0).SolveBatch(batch, target); err != nil {
				t.Fatal(err)
			}

			for i := range batch {
				sd, bd := seqStates[i].Data(), batch[i].X.Data()
				for k, v := range sd {
					if math.Float64bits(v) != math.Float64bits(bd[k]) {
						t.Fatalf("problem %d: batch result differs from sequential at %d: %x vs %x",
							i, k, math.Float64bits(v), math.Float64bits(bd[k]))
					}
				}
			}
		})
	}
}
