package pbmg

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file is the one admission mechanism of the serving stack: a global
// cap on running solves and, per served family, {quota, bounded FIFO queue,
// circuit breaker, counters} as one state machine under one mutex (diagram
// and shed-class table: README, "Admission"). A Registry owns one admitter
// shared by all its families; a standalone Service a private single-family
// one. A request crosses the mutex twice — admit, done — and nothing else
// stands between it and its solve. The shed order is fixed: context already
// expired → breaker open → queue full → deadline while queued.

// ErrShed marks a request turned away at admission (every class of the shed
// order above), as opposed to a solve that ran and failed. Serving layers
// match it with errors.Is to answer with a retryable status (429/503).
var ErrShed = errors.New("pbmg: request shed at admission")

// ErrQueueFull is the class of ErrShed for an arrival at a family whose
// bounded queue is already full — the explicit overload signal (HTTP 429).
var ErrQueueFull = errors.New("pbmg: family admission queue is full")

// defaultQueueFactor sizes a family's bounded wait queue when the
// configuration does not pin one: quota×4 keeps the p99 wait proportional
// to the family's own service time while still absorbing bursts.
const defaultQueueFactor = 4

type admitter struct {
	mu sync.Mutex
	// base is the configured cap; limit the effective one: max(base, quotas)
	// with quotas the Σ over the registered families, so quotas — not the
	// global cap — bind whenever every family has one, and one family's
	// burst cannot starve the others through shared capacity.
	base, quotas, limit int
	running             int
	seq                 uint64 // arrival stamp: global FIFO among family queue heads
	families            []*admitFamily
	breaker             BreakerConfig
	now                 func() time.Time // tests substitute the breaker's clock
}

// newAdmitter caps running solves at maxInFlight (≤ 0: 2×GOMAXPROCS).
func newAdmitter(maxInFlight int, bc BreakerConfig) *admitter {
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	return &admitter{base: maxInFlight, limit: maxInFlight, breaker: bc.withDefaults(), now: time.Now}
}

// admitFamily is one family's share of the state machine, guarded by the
// admitter's mutex.
type admitFamily struct {
	a *admitter
	// quota bounds the family's running solves (0: the global cap only, and
	// an unbounded queue); queueDepth bounds its queue.
	quota, queueDepth int
	running           int
	batches           int // batches in progress: one queue place each
	queue             []*waiter
	breaker           breaker
	m                 ServiceMetrics // counters; snapshot fills the gauges
}

// waiter is a queued request, allocated only when a request has to wait.
type waiter struct {
	ready   chan struct{}
	seq     uint64
	granted bool
}

// slot is a granted admission; done releases it exactly once.
type slot struct {
	f     *admitFamily
	probe bool // the request is its family's half-open breaker probe
}

// family registers one more family (queueDepth ≤ 0: defaultQueueFactor ×
// quota) and raises the effective cap to cover its quota.
func (a *admitter) family(quota, queueDepth int) *admitFamily {
	quota = max(quota, 0)
	if queueDepth <= 0 {
		queueDepth = defaultQueueFactor * quota
	}
	f := &admitFamily{a: a, quota: quota, queueDepth: queueDepth, breaker: breaker{cfg: a.breaker}}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.families = append(a.families, f)
	a.quotas += quota
	a.limit = max(a.base, a.quotas)
	a.dispatch()
	return f
}

func (a *admitter) globalCap() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limit
}

func (f *admitFamily) hasRoom() bool {
	return (f.quota == 0 || f.running < f.quota) && f.a.running < f.a.limit
}

// queueFull: a capped family's bounded queue holds its waiting requests
// plus one place per batch in progress.
func (f *admitFamily) queueFull() bool {
	return f.quota > 0 && len(f.queue)+f.batches >= f.queueDepth
}

func (f *admitFamily) grant() {
	f.running++
	f.a.running++
	f.m.Admitted++
}

// shed counts one turned-away arrival in the total and in its class counter
// (nil: expired on arrival has none) and builds the error. A shed probe
// never ran, so it is no evidence for the breaker: the next arrival probes.
func (f *admitFamily) shed(class *int64, probe bool, cause error) error {
	f.m.Shed++
	if class != nil {
		*class++
	}
	if probe {
		f.breaker.probing = false
	}
	return fmt.Errorf("%w: %w", ErrShed, cause)
}

// admit passes one request through the state machine, blocking in the
// family's FIFO queue while it has no room. A member of a batch is covered
// by the batch's queue place (enterBatch) and skips the queue-full check.
// The context bounds only the wait; an admitted request is never revoked.
func (f *admitFamily) admit(ctx context.Context, member bool) (slot, error) {
	a := f.a
	expired := ctx.Err()
	a.mu.Lock()
	if expired != nil {
		// An already-expired context sheds even though a slot may be free: a
		// deadline that passed upstream must not win one.
		defer a.mu.Unlock()
		return slot{}, f.shed(nil, false, expired)
	}
	// The breaker is consulted before the queue, so a tripped family sheds
	// at once instead of parking doomed requests for their whole deadline.
	probe, retryAfter, open := f.breaker.allow(a.now)
	if open {
		defer a.mu.Unlock()
		return slot{}, f.shed(&f.m.BreakerShed, false, &BreakerOpenError{RetryAfter: retryAfter})
	}
	if len(f.queue) == 0 && f.hasRoom() {
		f.grant()
		a.mu.Unlock()
		return slot{f, probe}, nil
	}
	if !member && f.queueFull() {
		defer a.mu.Unlock()
		return slot{}, f.shed(&f.m.ShedQueueFull, probe, ErrQueueFull)
	}
	w := &waiter{ready: make(chan struct{}), seq: a.seq}
	a.seq++
	f.queue = append(f.queue, w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return slot{f, probe}, nil
	case <-ctx.Done():
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted { // the grant raced the deadline and won
		return slot{f, probe}, nil
	}
	for i, q := range f.queue {
		if q == w {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			break
		}
	}
	return slot{}, f.shed(&f.m.ShedDeadline, probe,
		fmt.Errorf("deadline expired in admission queue: %w", ctx.Err()))
}

// done releases the slot and feeds the outcome to counters and breaker.
func (s slot) done(err error) {
	f, a := s.f, s.f.a
	a.mu.Lock()
	defer a.mu.Unlock()
	f.running--
	a.running--
	// Only infrastructure failures (divergence, panics) count toward opening
	// the breaker; a cancellation is no evidence either way; successes and
	// client errors (bad size, unreachable accuracy) say the solver is fine.
	outcome := breakerOK
	switch {
	case err == nil:
		f.m.Completed++
	case errors.Is(err, ErrCancelled):
		f.m.Cancelled++
		outcome = breakerNeutral
	case errors.Is(err, ErrDiverged):
		f.m.Diverged++
		outcome = breakerInfraFailure
	case errors.Is(err, ErrPanicked):
		f.m.Panicked++
		outcome = breakerInfraFailure
	}
	if err != nil {
		f.m.Failed++
	}
	if f.breaker.record(a.now, s.probe, outcome) {
		f.m.BreakerOpens++
	}
	a.dispatch()
}

// dispatch hands free capacity to queued requests: FIFO within a family,
// and across families the oldest head that has room. Called with the mutex
// held whenever capacity may have appeared.
func (a *admitter) dispatch() {
	for a.running < a.limit {
		var best *admitFamily
		for _, f := range a.families {
			if len(f.queue) > 0 && f.hasRoom() && (best == nil || f.queue[0].seq < best.queue[0].seq) {
				best = f
			}
		}
		if best == nil {
			return
		}
		w := best.queue[0]
		best.queue[0] = nil // do not pin the waiter in the backing array
		best.queue = best.queue[1:]
		w.granted = true
		best.grant()
		close(w.ready)
	}
}

// enterBatch takes the ONE queue place a batch occupies however many
// problems it carries (otherwise two 8-problem batches would fill a queue),
// or sheds the whole batch when the queue is full. It returns the fan-out
// width: the family's quota (the global cap without one), at most n.
func (f *admitFamily) enterBatch(n int) (int, error) {
	a := f.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if f.queueFull() {
		return 0, f.shed(&f.m.ShedQueueFull, false, ErrQueueFull)
	}
	f.batches++
	if f.quota > 0 {
		return min(n, f.quota), nil
	}
	return min(n, a.limit), nil
}

func (f *admitFamily) leaveBatch() {
	f.a.mu.Lock()
	f.batches--
	f.a.mu.Unlock()
}

func (f *admitFamily) metrics() ServiceMetrics {
	f.a.mu.Lock()
	defer f.a.mu.Unlock()
	m := f.m
	m.InFlight = int64(f.running)
	m.QueueLen = int64(len(f.queue))
	return m
}

func (f *admitFamily) breakerState() string {
	f.a.mu.Lock()
	defer f.a.mu.Unlock()
	return f.breaker.stateName(f.a.now)
}
