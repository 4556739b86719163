package pbmg

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pbmg/internal/mg"
)

// Concurrency tests for the serving path: one tuned Solver shared by many
// goroutines, with and without the direct-factor cache, over the shared
// worker pool. Run with -race. Grids of side 129 are used so the stencil
// and transfer kernels exceed their parallel threshold and actually
// exercise concurrent ParallelFor callers on one sched.Pool.

var sharedSolver struct {
	once sync.Once
	s    *Solver
	err  error
}

// tuneShared tunes one MaxSize-129 solver (4 pool workers, deterministic
// simulated-machine coster) shared by all concurrency tests in the process.
func tuneShared(t *testing.T) *Solver {
	t.Helper()
	sharedSolver.once.Do(func() {
		sharedSolver.s, sharedSolver.err = Tune(Options{
			MaxSize:      129,
			Distribution: Unbiased,
			Machine:      "intel-harpertown",
			Workers:      4,
			Seed:         5,
		})
	})
	if sharedSolver.err != nil {
		t.Fatal(sharedSolver.err)
	}
	return sharedSolver.s
}

func TestConcurrentSolvesSharedSolver(t *testing.T) {
	s := tuneShared(t)
	const goroutines = 8
	const target = 1e5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mixed sizes: half the clients solve at the tuned maximum, half
			// one level down, so concurrent solves overlap on some scratch
			// sizes and not others.
			n := 129
			if g%2 == 1 {
				n = 65
			}
			p := NewProblem(n, Unbiased, int64(100+g))
			Reference(p)

			x := p.NewState()
			if err := s.Solve(x, p.B, target); err != nil {
				errs <- err
				return
			}
			if got := p.AccuracyOf(x); got < target*0.1 {
				t.Errorf("goroutine %d: Solve achieved %.3g, want ≥ %.3g", g, got, target*0.1)
			}

			xv := p.NewState()
			if err := s.SolveV(xv, p.B, target); err != nil {
				errs <- err
				return
			}
			if got := p.AccuracyOf(xv); got < target*0.1 {
				t.Errorf("goroutine %d: SolveV achieved %.3g, want ≥ %.3g", g, got, target*0.1)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentSolvesOnColdFactorCache(t *testing.T) {
	s := tuneShared(t)
	// Same tuned tables on a fresh workspace, so eight first solves race to
	// factor each matrix: the factor-once path must be concurrency-clean.
	s2 := &Solver{tuned: s.tuned, ws: mg.NewWorkspace(nil, s.ws.Op)}
	const goroutines = 8
	const target = 1e3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := NewProblem(65, Unbiased, int64(200+g))
			Reference(p)
			x := p.NewState()
			if err := s2.Solve(x, p.B, target); err != nil {
				t.Error(err)
				return
			}
			if got := p.AccuracyOf(x); got < target*0.1 {
				t.Errorf("goroutine %d: achieved %.3g, want ≥ %.3g", g, got, target*0.1)
			}
		}(g)
	}
	wg.Wait()
}

func TestSolveBatch(t *testing.T) {
	s := tuneShared(t)
	const target = 1e5
	probs := make([]*Problem, 16)
	batch := make([]BatchProblem, len(probs))
	for i := range probs {
		probs[i] = NewProblem(65, Unbiased, int64(300+i))
		Reference(probs[i])
		batch[i] = BatchProblem{X: probs[i].NewState(), B: probs[i].B}
	}
	if err := newService(s, 0, BreakerConfig{}).SolveBatch(batch, target); err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		if got := p.AccuracyOf(batch[i].X); got < target*0.1 {
			t.Errorf("batch problem %d achieved %.3g, want ≥ %.3g", i, got, target*0.1)
		}
	}
}

func TestSolveBatchReportsPerProblemErrors(t *testing.T) {
	s := tuneShared(t)
	good := NewProblem(65, Unbiased, 7)
	Reference(good)
	oversized := NewProblem(257, Unbiased, 8) // beyond the tuned maximum
	batch := []BatchProblem{
		{X: good.NewState(), B: good.B},
		{X: oversized.NewState(), B: oversized.B},
	}
	err := newService(s, 0, BreakerConfig{}).SolveBatch(batch, 1e3)
	if err == nil {
		t.Fatal("oversized batch problem did not error")
	}
	if !strings.Contains(err.Error(), "batch problem 1") {
		t.Fatalf("error does not name the failing problem: %v", err)
	}
	// The good problem must still have been solved.
	if got := good.AccuracyOf(batch[0].X); got < 1e2 {
		t.Errorf("good batch problem achieved %.3g despite sibling failure", got)
	}
}

// TestServiceSolveBatchGoroutineBounded is the fan-out regression test: a
// 10k-problem batch must run on a worker loop sized by the admission limit,
// not spawn a goroutine per problem parked on the semaphore.
func TestServiceSolveBatchGoroutineBounded(t *testing.T) {
	s := tuneShared(t)
	sv := newService(s, 4, BreakerConfig{})
	const batchSize = 10_000
	batch := make([]BatchProblem, batchSize)
	for i := range batch {
		p := NewProblem(9, Unbiased, int64(i))
		batch[i] = BatchProblem{X: p.NewState(), B: p.B}
	}

	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- sv.SolveBatch(batch, 1e3) }()
	peak := 0
	for {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// Budget: the admission limit's worth of batch workers plus the
			// driver and sampling goroutines, with generous slack — far below
			// the 10k the old goroutine-per-problem fan-out would spawn.
			if budget := base + 50; peak > budget {
				t.Fatalf("goroutine peak %d exceeds budget %d (base %d, limit %d)",
					peak, budget, base, sv.fam.a.globalCap())
			}
			if got := sv.Metrics().Completed; got != batchSize {
				t.Fatalf("Completed = %d, want %d", got, batchSize)
			}
			return
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestServiceAdmission(t *testing.T) {
	s := tuneShared(t)
	sv := newService(s, 1, BreakerConfig{}) // fully serialized admission must still drain
	if sv.fam.a.globalCap() != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", sv.fam.a.globalCap())
	}
	const n = 8
	batch := make([]BatchProblem, n)
	probs := make([]*Problem, n)
	for i := range batch {
		probs[i] = NewProblem(65, Unbiased, int64(400+i))
		Reference(probs[i])
		batch[i] = BatchProblem{X: probs[i].NewState(), B: probs[i].B}
	}
	if err := sv.SolveBatch(batch, 1e3); err != nil {
		t.Fatal(err)
	}
	if got := sv.Metrics().Completed; got != n {
		t.Fatalf("Completed = %d, want %d", got, n)
	}
	for i, p := range probs {
		if got := p.AccuracyOf(batch[i].X); got < 1e2 {
			t.Errorf("service problem %d achieved %.3g", i, got)
		}
	}
}
