package pbmg

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbmg/internal/mg"
)

// Failure-hardening tests: cooperative cancellation, divergence, panic
// containment, and the circuit breaker — each followed by the pool
// hygiene checks (no pooled scratch leaked, next solve starts clean) that
// make the failure paths safe to serve behind. All of these must pass under
// -race: the abort paths cross the same pooled arenas the happy path uses.

// recorderFunc adapts a function to mg.Recorder, so a test can run code in
// the middle of a live solve (between kernels, on the solve's goroutine).
type recorderFunc func(kind mg.EventKind, level, count int)

func (f recorderFunc) Record(kind mg.EventKind, level, count int) { f(kind, level, count) }

// poisonedSolve is a solve on s that panics mid-flight: its recorder panics
// at the first event, raised inside the running solver the way a kernel bug
// would be, with the solve's scratch checked out.
func poisonedSolve(s *Solver) func() error {
	return func() error {
		rec := recorderFunc(func(mg.EventKind, int, int) { panic("poisoned recorder") })
		return s.SolveTraced(NewGrid(33), NewGrid(33), 1e3, rec)
	}
}

// assertScratchClean fails the test when the solver's workspace still holds
// checked-out pooled scratch — the leak a failed solve must never cause.
func assertScratchClean(t *testing.T, s *Solver, when string) {
	t.Helper()
	if got := s.Workspace().ScratchOutstanding(); got != 0 {
		t.Fatalf("%s: %d pooled scratch buffers still outstanding, want 0", when, got)
	}
}

// assertNextSolveClean runs one fresh accurate solve on the solver and
// grades it, proving a preceding failure left no poisoned state behind.
func assertNextSolveClean(t *testing.T, s *Solver, seed int64) {
	t.Helper()
	p, err := s.NewFamilyProblem(17, Unbiased, seed)
	if err != nil {
		t.Fatal(err)
	}
	Reference(p)
	x := p.NewState()
	if err := s.Solve(x, p.B, 1e3); err != nil {
		t.Fatalf("solve after a failure: %v", err)
	}
	if got := p.AccuracyOf(x); got < 1e3 {
		t.Fatalf("solve after a failure reached accuracy %.3g, want ≥ 1e3", got)
	}
}

// TestSolveCancellationMidSolve: cancelling the context in the middle of a
// running solve aborts it at the next checkpoint with an error wrapping both
// ErrCancelled and context.Canceled, with all pooled scratch returned.
func TestSolveCancellationMidSolve(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	p, err := s.NewFamilyProblem(33, Unbiased, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the solve, after the first recorded kernel: the
	// full-multigrid traversal at acc 1e9 has many checkpoints still ahead.
	var events atomic.Int64
	rec := recorderFunc(func(kind mg.EventKind, level, count int) {
		if events.Add(1) == 1 {
			cancel()
		}
	})
	x := p.NewState()
	err = s.solveCtx(ctx, x, p.B, 1e9, true, rec)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("mid-solve cancel: err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel error %v does not wrap context.Canceled", err)
	}
	if events.Load() == 0 {
		t.Fatal("solve aborted before running any kernel — not a mid-solve cancel")
	}
	assertScratchClean(t, s, "after mid-solve cancel")
	assertNextSolveClean(t, s, 12)
}

// TestSolveCancellationAtEntry: an already-done context aborts
// SolveContext before the first kernel.
func TestSolveCancellationAtEntry(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	p, err := s.NewFamilyProblem(17, Unbiased, 13)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err = s.SolveContext(ctx, p.NewState(), p.B, 1e3)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SolveContext with an expired context: err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
	assertScratchClean(t, s, "after an entry cancel")
}

// TestServicePanicContainment: a panicking solve — here one whose recorder
// panics mid-flight (poisonedSolve) — is recovered at the Service boundary
// into a *PanicError instead of crashing the process, counted in the
// Panicked failure class, and the service keeps serving.
func TestServicePanicContainment(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	sv := newService(s, 2, BreakerConfig{})

	err := sv.Do(context.Background(), poisonedSolve(s))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking solve: err = %v, want *PanicError", err)
	}
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("panic error %v does not match ErrPanicked", err)
	}
	if !strings.Contains(pe.Error(), "poisoned recorder") {
		t.Errorf("panic error lost its payload: %q", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}

	m := sv.Metrics()
	if m.Failed != 1 || m.Panicked != 1 || m.Completed != 0 {
		t.Errorf("metrics after panic = %+v, want Failed 1, Panicked 1", m)
	}
	if m.InFlight != 0 || m.QueueLen != 0 {
		t.Errorf("gauges after panic = %+v, want all zero", m)
	}
	assertScratchClean(t, s, "after contained panic")
	assertNextSolveClean(t, s, 14)
	if err := sv.Solve(NewGrid(17), NewGrid(17), 1e3); err != nil {
		t.Fatalf("service solve after contained panic: %v", err)
	}
	if m := sv.Metrics(); m.Completed != 1 {
		t.Errorf("Completed after recovery = %d, want 1", m.Completed)
	}
}

// TestServiceFailureClassCounters: one solve of each failure class lands in
// its own counter, and all of them count in Failed.
func TestServiceFailureClassCounters(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	sv := newService(s, 2, BreakerConfig{})

	// Cancelled: an admitted solve whose context dies mid-flight. The cancel
	// fires from a recorder callback inside the running solve, so admission
	// (which sheds on an already-expired context) has long since passed.
	p, err := s.NewFamilyProblem(33, Unbiased, 15)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := recorderFunc(func(kind mg.EventKind, level, count int) { cancel() })
	err = sv.Do(ctx, func() error { return s.solveCtx(ctx, p.NewState(), p.B, 1e9, true, rec) })
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("mid-flight cancelled solve: err = %v, want ErrCancelled", err)
	}

	// Diverged: NaN input is never served as a NaN "success".
	bNaN := NewGrid(17)
	nan := 0.0
	nan /= nan
	bNaN.Set(8, 8, nan)
	if err := sv.Solve(NewGrid(17), bNaN, 1e3); !errors.Is(err, ErrDiverged) {
		t.Fatalf("NaN-rhs solve: err = %v, want ErrDiverged", err)
	}

	// Panicked.
	sv.Do(context.Background(), poisonedSolve(s))

	m := sv.Metrics()
	if m.Cancelled != 1 || m.Diverged != 1 || m.Panicked != 1 {
		t.Errorf("failure classes = cancelled %d, diverged %d, panicked %d; want 1 each",
			m.Cancelled, m.Diverged, m.Panicked)
	}
	if m.Failed != m.Cancelled+m.Diverged+m.Panicked {
		t.Errorf("failure classes %d+%d+%d do not sum to Failed %d",
			m.Cancelled, m.Diverged, m.Panicked, m.Failed)
	}
	assertScratchClean(t, s, "after failure-class sweep")
}

// TestBreakerLifecycle drives the per-service circuit breaker through its
// whole state machine: consecutive infrastructure failures open it, open
// sheds carry a Retry-After, the cooldown admits a half-open probe, and a
// healthy probe closes it again.
func TestBreakerLifecycle(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	sv := newService(s, 4, BreakerConfig{
		Threshold: 2, Cooldown: 200 * time.Millisecond,
	})
	if got := sv.BreakerState(); got != "closed" {
		t.Fatalf("initial breaker state = %q", got)
	}

	// Two consecutive panics reach the threshold and open the breaker.
	for i := 0; i < 2; i++ {
		if err := sv.Do(context.Background(), poisonedSolve(s)); !errors.Is(err, ErrPanicked) {
			t.Fatalf("poisoned solve %d: err = %v, want ErrPanicked", i, err)
		}
	}
	if got := sv.BreakerState(); got != "open" {
		t.Fatalf("breaker after %d failures = %q, want open", 2, got)
	}

	// While open, requests shed instantly with the retry hint — they never
	// reach the solver.
	err := sv.Solve(NewGrid(17), NewGrid(17), 1e3)
	if !errors.Is(err, ErrShed) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker solve: err = %v, want ErrShed wrapping ErrBreakerOpen", err)
	}
	var boe *BreakerOpenError
	if !errors.As(err, &boe) || boe.RetryAfter <= 0 {
		t.Fatalf("open-breaker error %v carries no positive RetryAfter", err)
	}
	m := sv.Metrics()
	if m.BreakerOpens != 1 || m.BreakerShed != 1 {
		t.Errorf("breaker counters = opens %d, shed %d; want 1, 1", m.BreakerOpens, m.BreakerShed)
	}
	if m.Shed != 1 {
		t.Errorf("breaker shed not counted in Shed: %d", m.Shed)
	}
	if m.Admitted != 2 {
		t.Errorf("Admitted = %d, want only the two poisoned solves", m.Admitted)
	}

	// After the cooldown the breaker offers a half-open probe; a healthy
	// solve closes it and traffic flows normally again.
	time.Sleep(250 * time.Millisecond)
	if got := sv.BreakerState(); got != "half-open" {
		t.Fatalf("breaker after cooldown = %q, want half-open", got)
	}
	p, err2 := s.NewFamilyProblem(17, Unbiased, 16)
	if err2 != nil {
		t.Fatal(err2)
	}
	if err := sv.Solve(p.NewState(), p.B, 1e3); err != nil {
		t.Fatalf("half-open probe solve: %v", err)
	}
	if got := sv.BreakerState(); got != "closed" {
		t.Fatalf("breaker after healthy probe = %q, want closed", got)
	}
	if err := sv.Solve(p.NewState(), p.B, 1e3); err != nil {
		t.Fatalf("solve after breaker closed: %v", err)
	}
	if m := sv.Metrics(); m.BreakerOpens != 1 {
		t.Errorf("BreakerOpens after recovery = %d, want still 1", m.BreakerOpens)
	}
}

// TestBreakerReopensOnFailedProbe: a half-open probe that fails snaps the
// breaker straight back open (a second closed→open transition) instead of
// letting traffic back in.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	sv := newService(s, 4, BreakerConfig{
		Threshold: 1, Cooldown: 100 * time.Millisecond,
	})
	bad := func() error { return sv.Do(context.Background(), poisonedSolve(s)) }
	if err := bad(); !errors.Is(err, ErrPanicked) {
		t.Fatalf("first poisoned solve: %v", err)
	}
	if got := sv.BreakerState(); got != "open" {
		t.Fatalf("breaker = %q, want open", got)
	}
	time.Sleep(150 * time.Millisecond)
	// The probe itself fails: back to open.
	if err := bad(); !errors.Is(err, ErrPanicked) {
		t.Fatalf("probe solve: %v", err)
	}
	if got := sv.BreakerState(); got != "open" {
		t.Fatalf("breaker after failed probe = %q, want open", got)
	}
	if m := sv.Metrics(); m.BreakerOpens != 2 {
		t.Errorf("BreakerOpens = %d, want 2", m.BreakerOpens)
	}
	assertScratchClean(t, s, "after failed probe")
}

// TestSolveVetsNonFiniteInput: NaN smuggled into a right-hand side cannot
// come back out as a "successful" NaN answer — the post-solve vet classifies
// it as divergence.
func TestSolveVetsNonFiniteInput(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	x, b := NewGrid(17), NewGrid(17)
	nan := 0.0
	nan /= nan // NaN without importing math
	b.Set(8, 8, nan)
	err := s.Solve(x, b, 1e3)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("NaN rhs: err = %v, want ErrDiverged", err)
	}
	assertScratchClean(t, s, "after NaN-input divergence")
	assertNextSolveClean(t, s, 17)
}
