package pbmg

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestServiceMetricsShedSplit: the serving counters keep load-shedding
// and solve failures apart — Shed counts requests turned away at
// admission (never admitted, never run), Failed counts solves that ran
// and errored — and the QueueLen gauge tracks requests blocked in
// admission.
func TestServiceMetricsShedSplit(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	sv := newService(s, 1, BreakerConfig{})
	p, err := s.NewFamilyProblem(17, Unbiased, 11)
	if err != nil {
		t.Fatal(err)
	}

	// 1. A successful solve: Admitted + Completed.
	if err := sv.Solve(p.NewState(), p.B, 1e3); err != nil {
		t.Fatal(err)
	}

	// 2. A solve that runs and errors (beyond the tuned size): Failed,
	// not Shed.
	if err := sv.Solve(NewGrid(65), NewGrid(65), 1e3); err == nil {
		t.Fatal("oversize solve succeeded")
	} else if errors.Is(err, ErrShed) {
		t.Fatalf("solve failure classified as shed: %v", err)
	}

	// 3. An already-expired context sheds before touching the semaphore,
	// even though a slot is free: Shed, not Admitted.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sv.SolveContext(expired, p.NewState(), p.B, 1e3); !errors.Is(err, ErrShed) {
		t.Fatalf("expired-context solve: err = %v, want ErrShed", err)
	}

	// 4. A request queued behind a full admission limit past its deadline:
	// Shed.
	release := holdSlot(t, sv) // occupy the only slot
	ctx, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if err := sv.SolveContext(ctx, p.NewState(), p.B, 1e3); !errors.Is(err, ErrShed) {
		t.Fatalf("queued-past-deadline solve: err = %v, want ErrShed", err)
	}

	// 5. The QueueLen gauge: a request blocked in admission is visible,
	// then admitted and completed once the slot frees.
	done := make(chan error, 1)
	go func() {
		done <- sv.SolveContext(context.Background(), p.NewState(), p.B, 1e3)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sv.Metrics().QueueLen == 0 {
		if time.Now().After(deadline) {
			t.Fatal("QueueLen gauge never rose while a request was queued")
		}
		time.Sleep(time.Millisecond)
	}
	release() // free the slot
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	m := sv.Metrics()
	// (The held slot itself is one more admitted+completed request; the
	// queued-past-deadline shed of step 4 also has its class counter.)
	want := ServiceMetrics{Admitted: 4, Completed: 3, Failed: 1, Shed: 2, ShedDeadline: 1}
	if m != want {
		t.Fatalf("metrics = %+v, want %+v", m, want)
	}

	// Add must fold every field, Shed and QueueLen included.
	var sum ServiceMetrics
	sum.Add(m)
	sum.Add(ServiceMetrics{Shed: 1, QueueLen: 4, Failed: 2})
	if sum.Shed != 3 || sum.QueueLen != 4 || sum.Failed != 3 || sum.Admitted != 4 {
		t.Errorf("ServiceMetrics.Add dropped fields: %+v", sum)
	}
}
