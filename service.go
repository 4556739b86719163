package pbmg

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pbmg/internal/sched"
)

// This file is the serving front end over a tuned Solver: a Service admits a
// stream of solve requests with a bound on how many run at once, and its
// SolveBatch fans a fixed set of independent problems out under the same
// admission. It leans on the tune-once/serve-many model of the paper
// (§3.2.1): the expensive tuned configuration and its caches are built once
// and then amortized over every request. Registry (registry.go) composes
// several Services — one per tuned operator family — behind one admission
// limit.

// BatchProblem pairs one solve's state grid (Dirichlet boundary and initial
// guess, solved in place) with its right-hand side.
type BatchProblem struct {
	X, B *Grid
}

// Service wraps a Solver with admission for serving: at most MaxInFlight
// solves run concurrently, and further requests wait (or are shed — see
// admission.go) until a slot frees. A Service is safe for concurrent use and
// is cheap to create; all services of one Solver share its tuned tables and
// caches. Services created by a Registry are families of the registry's one
// admitter, so the cap is global across every family the registry serves.
type Service struct {
	s   *Solver
	fam *admitFamily
}

// ServiceMetrics is a consistent snapshot of one family's request counters
// — the single declaration every layer (Registry, serve's /metrics, the
// benches) reports. Admitted counts requests that got a slot: Admitted =
// Completed + Failed + InFlight. Shed counts every request turned away at
// admission, which never runs a solve: ShedQueueFull + ShedDeadline +
// BreakerShed + those whose context had expired on arrival; keeping them
// out of Failed keeps load-shedding and broken requests distinguishable.
// Cancelled (aborted mid-solve by the context), Diverged (a non-finite
// answer) and Panicked (recovered panic) split Failed; the
// rest of Failed are client errors. InFlight and QueueLen are gauges —
// running now, queued for a slot now.
type ServiceMetrics struct {
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`
	InFlight  int64 `json:"inFlight"`

	Cancelled    int64 `json:"cancelled"`
	Diverged     int64 `json:"diverged"`
	Panicked     int64 `json:"panicked"`
	BreakerShed  int64 `json:"breakerShed"`
	BreakerOpens int64 `json:"breakerOpens"`

	QueueLen      int64 `json:"queueLen"`
	ShedQueueFull int64 `json:"shedQueueFull"`
	ShedDeadline  int64 `json:"shedDeadline"`
}

// Add accumulates m into the receiver (for aggregating per-family metrics).
func (sm *ServiceMetrics) Add(m ServiceMetrics) {
	sm.Admitted += m.Admitted
	sm.Completed += m.Completed
	sm.Failed += m.Failed
	sm.Shed += m.Shed
	sm.InFlight += m.InFlight
	sm.Cancelled += m.Cancelled
	sm.Diverged += m.Diverged
	sm.Panicked += m.Panicked
	sm.BreakerShed += m.BreakerShed
	sm.BreakerOpens += m.BreakerOpens
	sm.QueueLen += m.QueueLen
	sm.ShedQueueFull += m.ShedQueueFull
	sm.ShedDeadline += m.ShedDeadline
}

// NewService returns a serving front end admitting at most maxInFlight
// concurrent solves (≤ 0 selects 2×GOMAXPROCS), with a default-configured
// circuit breaker.
func (s *Solver) NewService(maxInFlight int) *Service {
	return newService(s, maxInFlight, BreakerConfig{})
}

// newService wraps a solver in a private single-family admitter: no quota,
// an unbounded queue, the global cap alone.
func newService(s *Solver, maxInFlight int, bc BreakerConfig) *Service {
	return &Service{s: s, fam: newAdmitter(maxInFlight, bc).family(0, 0)}
}

// MaxInFlight returns the effective global cap on running solves.
func (sv *Service) MaxInFlight() int { return sv.fam.a.globalCap() }

// Quota returns the family's own cap on running solves (0: the global cap
// only) and QueueDepth the bound on its admission queue.
func (sv *Service) Quota() int      { return sv.fam.quota }
func (sv *Service) QueueDepth() int { return sv.fam.queueDepth }

// Solver returns the tuned solver behind the service.
func (sv *Service) Solver() *Solver { return sv.s }

// Family returns the operator family the underlying solver serves; requests
// must be drawn from the same family (see Solver.NewFamilyProblem).
func (sv *Service) Family() Family { return sv.s.Family() }

// Epsilon returns the served family's parameter (ε or σ; 1 for Poisson).
func (sv *Service) Epsilon() float64 { return sv.s.Epsilon() }

// Metrics returns a consistent snapshot of the service's request counters.
func (sv *Service) Metrics() ServiceMetrics { return sv.fam.metrics() }

// BreakerState reports the service's circuit-breaker state: "closed",
// "open", or "half-open".
func (sv *Service) BreakerState() string { return sv.fam.breakerState() }

// Solve admits one tuned FULL-MULTIGRID solve, blocking while MaxInFlight
// solves are already running. See Solver.Solve.
func (sv *Service) Solve(x, b *Grid, accuracy float64) error {
	return sv.admit(context.Background(), false, func() error { return sv.s.Solve(x, b, accuracy) })
}

// SolveContext admits one tuned FULL-MULTIGRID solve bounded by ctx at
// every stage: a request whose context is done before it gets a slot is
// shed (an ErrShed error, counted in Shed) instead of waiting indefinitely;
// once admitted, the solve itself polls ctx between cycles and levels and
// aborts with an error wrapping ErrCancelled (counted in Cancelled) within
// roughly one cycle's latency.
func (sv *Service) SolveContext(ctx context.Context, x, b *Grid, accuracy float64) error {
	return sv.admit(ctx, false, func() error { return sv.s.solveCtx(ctx, x, b, accuracy, true, nil) })
}

// Do runs arbitrary work as one request of the service: under its admission
// (slot, queue, breaker — sheds match ErrShed and never call work), with
// panic containment, and with the returned error counted and classified like
// a solve's. A V-table solve under admission is
// sv.Do(ctx, func() error { return sv.Solver().SolveV(x, b, accuracy) }).
func (sv *Service) Do(ctx context.Context, work func() error) error {
	return sv.admit(ctx, false, work)
}

// admit is the only path from a request to its solve: one slot from the
// admission state machine, the solve under panic containment, the slot
// back with the outcome.
func (sv *Service) admit(ctx context.Context, member bool, solve func() error) error {
	slot, err := sv.fam.admit(ctx, member)
	if err != nil {
		return err
	}
	err = sv.protect(solve)
	slot.done(err)
	return err
}

// protect runs one solve with panic containment: a panic anywhere inside
// the solver — a kernel bug, an injected fault, a pool-task panic re-raised
// at its join — is recovered here, at the Service boundary, into a
// *PanicError, so one poisoned request costs one failed response instead of
// the process. By the time the panic reaches this frame the solver's
// unwind has already returned every pooled scratch buffer (the workspace's
// checkout/release balancing is deferred), so the next request starts
// clean.
func (sv *Service) protect(solve func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if tp, ok := r.(*sched.TaskPanic); ok {
				// A pool-worker panic: surface the task's own value and the
				// worker's stack, not this recovery goroutine's.
				err = &PanicError{Value: tp.Value, Stack: tp.Stack}
				return
			}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return solve()
}

// SolveBatch solves every problem with the tuned FULL-MULTIGRID algorithm
// for the smallest tuned target ≥ accuracy, concurrently, through this
// service's admission, which bounds both the solves in flight and the
// goroutines fanned out (see SolveBatchContext). Each problem's X is solved
// in place. The returned error joins the failures of the problems that
// failed; the others still complete.
func (sv *Service) SolveBatch(problems []BatchProblem, accuracy float64) error {
	errs, err := sv.SolveBatchContext(context.Background(), len(problems),
		func(i int) (BatchProblem, error) { return problems[i], nil }, accuracy)
	if err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("pbmg: batch problem %d: %w", i, err)
		}
	}
	return errors.Join(errs...)
}

// SolveBatchContext is the one batch fan-out of the serving stack: n
// problems solved concurrently, each bounded by ctx like SolveContext. The
// batch occupies ONE place in the family's admission queue however many
// problems it carries — a full queue sheds the whole batch with the returned
// error — and its problems then take running slots one by one. problem(i)
// supplies the i-th problem just before it is admitted (so a server
// materializes grids per worker, not per batch); an error from it fails
// that problem alone. The result is parallel to the problems. The fan-out
// is a worker loop as wide as the family's quota (the global cap without
// one): a million-problem batch parks no million goroutines in the queue.
func (sv *Service) SolveBatchContext(ctx context.Context, n int, problem func(i int) (BatchProblem, error), accuracy float64) ([]error, error) {
	if n == 0 {
		return nil, nil
	}
	workers, err := sv.fam.enterBatch(n)
	if err != nil {
		return nil, err
	}
	defer sv.fam.leaveBatch()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				p, err := problem(i)
				if err == nil {
					err = sv.admit(ctx, true, func() error { return sv.s.solveCtx(ctx, p.X, p.B, accuracy, true, nil) })
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	return errs, nil
}
