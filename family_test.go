package pbmg

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"pbmg/internal/mg"
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
			if err := newService(s, 0, BreakerConfig{}).SolveBatch(batch, target); err != nil {
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

// varcoefTableN and varcoefTableAcc are the side and the one accuracy of
// the varcoef table saveVarCoefTable writes.
const varcoefTableN, varcoefTableAcc = 257, 10

// saveVarCoefTable tunes a varcoef table at N = varcoefTableN on the
// deterministic simulated machine and saves it under t's temporary
// directory, returning the path.
func saveVarCoefTable(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "varcoef.json")
	tuned, err := Tune(Options{MaxSize: varcoefTableN, Family: FamilyVarCoef, Accuracies: []float64{varcoefTableAcc}, Machine: "intel-harpertown", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	err = tuned.Save(path)
	tuned.Close()
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// liveHeap returns the heap in use after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestSecondLoadSharesVarCoefOperator: a process loads the coefficient
// field of a varcoef table once. Two Loads of an N = 257 table and a problem
// drawn at that size run on one operator, so the second Load adds to the
// live heap well under the 0.53 MB of a second field (0.70 MB with the
// coarse hierarchy a solve builds).
func TestSecondLoadSharesVarCoefOperator(t *testing.T) {
	const n, acc = varcoefTableN, varcoefTableAcc
	path := saveVarCoefTable(t)
	first, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	p, err := NewFamilyProblem(n, Unbiased, 1, FamilyVarCoef, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Solve(p.NewState(), p.B, acc); err != nil { // builds the coarse hierarchy
		t.Fatal(err)
	}
	before := liveHeap()
	second, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	grown := liveHeap() - before
	op := first.Workspace().Operator()
	if second.Workspace().Operator() != op || p.Op != op {
		t.Errorf("two loads and a problem of one varcoef table hold operators %p, %p and %p, want one",
			op, second.Workspace().Operator(), p.Op)
	}
	const limit = 100 << 10
	if grown > limit {
		t.Errorf("the second Load grew the live heap by %.2f MB, want < %.2f MB: it built its own coefficient field",
			float64(grown)/(1<<20), float64(limit)/(1<<20))
	}
	runtime.KeepAlive(p)
}

// TestCoarseProblemSharesLoadedHierarchy: a varcoef problem at N = 129
// next to a loaded N = 257 table runs on the table's own N = 129 level, so
// it adds to the live heap only its own grids, well under the 0.13 MB of a
// second N = 129 field, and its direct solves find the factorizations the
// table already made.
func TestCoarseProblemSharesLoadedHierarchy(t *testing.T) {
	const n = 129
	s, err := Load(saveVarCoefTable(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big, err := NewFamilyProblem(varcoefTableN, Unbiased, 1, FamilyVarCoef, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(big.NewState(), big.B, varcoefTableAcc); err != nil { // builds the coarse hierarchy
		t.Fatal(err)
	}
	ws := s.Workspace()
	levels := []int{5, 9, 17, 33}
	table := make([]*Grid, len(levels))
	for i, m := range levels {
		q, err := NewFamilyProblem(m, Unbiased, 3, FamilyVarCoef, 0)
		if err != nil {
			t.Fatal(err)
		}
		table[i] = q.NewState()
		ws.SolveDirect(table[i], q.B, nil) // the table factors level m
	}

	// A Poisson problem of the same side holds the same grids and no
	// operator of its own: the varcoef problem's growth beyond it is what
	// its operator costs.
	before := liveHeap()
	poisson := NewProblem(n, Unbiased, 2)
	mid := liveHeap()
	p, err := NewFamilyProblem(n, Unbiased, 2, FamilyVarCoef, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown := liveHeap() - mid - (mid - before)
	if want := ws.Operator().At(n); p.Op != want {
		t.Errorf("the N=%d problem holds operator %p, the table's At(%d) is %p", n, p.Op, n, want)
	}
	const limit = 50 << 10
	if grown > limit {
		t.Errorf("the N=%d problem's operator grew the live heap by %.3f MB, want < %.2f MB: it built its own coefficient field",
			n, float64(grown)/(1<<20), float64(limit)/(1<<20))
	}

	cached := ws.FactorCache.Len()
	pws := mg.NewWorkspace(nil, p.Op)
	pws.FactorCache = ws.FactorCache
	for i, m := range levels {
		q, err := NewFamilyProblem(m, Unbiased, 3, FamilyVarCoef, 0)
		if err != nil {
			t.Fatal(err)
		}
		x := q.NewState()
		pws.SolveDirect(x, q.B, nil)
		for k, v := range x.Data() {
			if v != table[i].Data()[k] {
				t.Fatalf("N=%d: the problem's direct solve differs from the table's at point %d", m, k)
			}
		}
	}
	if got := ws.FactorCache.Len(); got != cached {
		t.Errorf("direct solves at levels the table factored grew the cache from %d to %d entries", cached, got)
	}
	runtime.KeepAlive(poisson)
	runtime.KeepAlive(p)
}
