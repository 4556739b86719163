// Package sched implements a Cilk-style work-stealing task pool: per-worker
// deques, random victim selection, and helping callers that execute tasks
// while they wait. It is the Go analogue of the PetaBricks runtime scheduler
// (§3.2.3 of the paper), which distributes work with thread-private deques
// and a task-stealing protocol following Cilk.
package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// TaskPanic is the panic value re-raised on a joining caller when a pool
// task panicked. Carrying the original value and the worker's stack as a
// typed payload (rather than a formatted string) lets a recover boundary
// upstream — pbmg's Service — classify the failure and report where it
// happened, even though the worker goroutine's own stack is gone by the
// time the join re-panics.
type TaskPanic struct {
	// Value is the task's original panic value.
	Value any
	// Stack is the worker goroutine's stack at the point of the panic.
	Stack []byte
}

func (tp *TaskPanic) String() string {
	return fmt.Sprintf("sched: task panic: %v", tp.Value)
}

// task is one schedulable unit. Tasks belong to a region (a ParallelFor or
// Do call) whose remaining-counter joins them.
type task struct {
	run    func()
	region *region
}

// region tracks the completion of a group of tasks spawned together.
type region struct {
	remaining atomic.Int64
	panicked  atomic.Value // first panic value, if any
}

func (r *region) done() bool { return r.remaining.Load() == 0 }

// Pool is a work-stealing scheduler with a fixed set of workers.
// A Pool with one worker runs everything inline on the calling goroutine,
// which keeps single-threaded measurements free of scheduling noise.
// Pools must be released with Close; the zero value is not usable.
//
// A Pool is safe for concurrent use: any number of goroutines may call Do
// and ParallelFor simultaneously (including from inside pool tasks — nested
// regions help rather than block). Each call joins only its own region;
// tasks from concurrent regions share the deques and are executed by
// whichever worker or helping caller dequeues them first. Only Close must
// be serialized: it must not run concurrently with Do, ParallelFor, or
// another first Close.
type Pool struct {
	deques  []*deque
	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	next    atomic.Uint64 // round-robin push cursor
	steals  atomic.Int64  // successful steals, for tests/metrics
	workers int
	wg      sync.WaitGroup
}

// NewPool creates a pool with n workers. n < 1 is treated as
// runtime.NumCPU(). A pool with n == 1 spawns no goroutines.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.NumCPU()
	}
	p := &Pool{workers: n}
	p.cond = sync.NewCond(&p.mu)
	if n == 1 {
		return p
	}
	p.deques = make([]*deque, n)
	for i := range p.deques {
		p.deques[i] = &deque{}
	}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Workers returns the worker count the pool was created with.
func (p *Pool) Workers() int { return p.workers }

// Steals returns the number of successful steals so far (for tests and
// instrumentation).
func (p *Pool) Steals() int64 { return p.steals.Load() }

// Close shuts the workers down. It must not be called concurrently with
// ParallelFor or Do. Close is idempotent and safe to call from several
// goroutines — every caller returns only after the workers have exited, so
// shared owners (e.g. a registry and the solvers it serves) may all Close
// defensively during teardown.
func (p *Pool) Close() {
	if p.workers == 1 {
		return
	}
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// worker is the main loop of worker i: pop own deque, steal otherwise,
// sleep when the whole pool is idle.
func (p *Pool) worker(i int) {
	defer p.wg.Done()
	rng := rand.New(rand.NewSource(int64(i)*2654435761 + 1))
	own := p.deques[i]
	for {
		if t := own.popBottom(); t != nil {
			p.execute(t)
			continue
		}
		if t := p.steal(i, rng); t != nil {
			p.steals.Add(1)
			p.execute(t)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		if p.anyWork() {
			p.mu.Unlock()
			continue
		}
		p.cond.Wait()
		p.mu.Unlock()
	}
}

// steal tries each other worker's deque starting from a random victim.
func (p *Pool) steal(self int, rng *rand.Rand) *task {
	n := len(p.deques)
	start := rng.Intn(n)
	for k := 0; k < n; k++ {
		v := (start + k) % n
		if v == self {
			continue
		}
		if t := p.deques[v].stealTop(); t != nil {
			return t
		}
	}
	return nil
}

// anyWork reports whether any deque holds a task. Callers hold p.mu only to
// serialize with cond.Wait; deques have their own locks.
func (p *Pool) anyWork() bool {
	for _, d := range p.deques {
		if d.size() > 0 {
			return true
		}
	}
	return false
}

// execute runs one task, converting a panic into a region-level failure that
// is re-raised on the joining goroutine as a *TaskPanic. A panic that is
// already a *TaskPanic (a nested region's join re-panicking inside this
// task) is stored as-is, so the outermost caller sees the innermost
// failure once, not a wrapper per nesting level.
func (p *Pool) execute(t *task) {
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(*TaskPanic)
			if !ok {
				tp = &TaskPanic{Value: r, Stack: debug.Stack()}
			}
			t.region.panicked.CompareAndSwap(nil, tp)
		}
		t.region.remaining.Add(-1)
	}()
	t.run()
}

// submit spreads a task across the deques round-robin and wakes a worker.
func (p *Pool) submit(t *task) {
	i := int(p.next.Add(1)) % len(p.deques)
	p.deques[i].pushBottom(t)
	p.mu.Lock()
	p.cond.Signal()
	p.mu.Unlock()
}

// help runs tasks on the calling goroutine until the region completes.
// Helping (rather than blocking) makes nested parallel regions deadlock-free
// and puts the caller's CPU to work, as in Cilk's fully-strict joins.
//
// Helping invariant: a helper may execute ANY queued task, not just its own
// region's — each task decrements only its own region's remaining-counter,
// so executing a stranger's task can delay this join but never corrupt it,
// and the region completes exactly when its last task finishes, wherever it
// ran. This is what lets one Pool serve concurrent Do/ParallelFor callers:
// their helpers drain a common set of deques without coordination.
func (p *Pool) help(r *region, rng *rand.Rand) {
	backoff := 0
	for !r.done() {
		if t := p.steal(-1, rng); t != nil {
			p.execute(t)
			backoff = 0
			continue
		}
		backoff++
		if backoff < 64 {
			runtime.Gosched()
		} else {
			// Nothing stealable for 64 consecutive attempts: the region's
			// remaining tasks are already running on workers, so park briefly
			// instead of burning this CPU on Gosched spins. The sleep is kept
			// short to bound added join latency.
			time.Sleep(20 * time.Microsecond)
		}
	}
	if v := r.panicked.Load(); v != nil {
		panic(v)
	}
}

// Do runs the given functions, possibly in parallel, and returns when all
// have completed. A panic in any function is re-raised on the caller after
// all functions finish.
func (p *Pool) Do(fns ...func()) {
	switch {
	case len(fns) == 0:
		return
	case len(fns) == 1 || p.workers == 1:
		for _, fn := range fns {
			fn()
		}
		return
	}
	r := &region{}
	r.remaining.Store(int64(len(fns) - 1))
	for _, fn := range fns[1:] {
		p.submit(&task{run: fn, region: r})
	}
	// Run the first function inline, then help finish the rest.
	var firstPanic any
	func() {
		defer func() { firstPanic = recover() }()
		fns[0]()
	}()
	p.help(r, rand.New(rand.NewSource(int64(len(fns)))))
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// minParallelPoints is the work size — measured in grid points, not loop
// iterations — below which a data-parallel pass runs serially: task spawn
// and join-barrier overhead dominates under it. The stencil and transfer
// kernels share this one threshold across dimensions (a 2D row of a level-7
// grid and a 3D plane of a level-5 cube carry very different point counts,
// so gating on iteration count alone mis-tunes one dimension or the other).
const minParallelPoints = 8192

// Splits reports whether ParallelForPoints would chunk n iterations of
// pointsPerIter grid points each instead of running them as one call on the
// caller. It is the gate itself, for kernels that bind a different, serial
// algorithm to grids the pool would leave whole. A one-worker pool passes it
// like any other and then runs its chunks inline.
func (*Pool) Splits(n, pointsPerIter int) bool {
	return n*max(pointsPerIter, 1) >= minParallelPoints
}

// ParallelForPoints is ParallelFor for iteration spaces whose elements carry
// uniform work of pointsPerIter grid points each (a 2D row, a 3D plane). It
// runs serially when the total work is under minParallelPoints (Splits), and
// otherwise picks the default grain so that no chunk is smaller than
// minParallelPoints worth of points — the points-based gate that keeps
// coarse levels off the task queue in both dimensions.
func (p *Pool) ParallelForPoints(lo, hi, pointsPerIter int, body func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	pointsPerIter = max(pointsPerIter, 1)
	if !p.Splits(n, pointsPerIter) {
		body(lo, hi)
		return
	}
	grain := n / (8 * p.workers)
	if min := (minParallelPoints + pointsPerIter - 1) / pointsPerIter; grain < min {
		grain = min
	}
	p.ParallelFor(lo, hi, grain, body) // serial for one worker
}

// ParallelFor partitions [lo, hi) into chunks of at most grain iterations
// and runs body on each chunk, possibly in parallel. grain <= 0 selects a
// default of (hi-lo)/(8*workers), clamped to at least 1. body must be safe
// to call concurrently on disjoint ranges.
func (p *Pool) ParallelFor(lo, hi, grain int, body func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n / (8 * p.workers)
		if grain < 1 {
			grain = 1
		}
	}
	if p.workers == 1 || n <= grain {
		body(lo, hi)
		return
	}
	chunks := (n + grain - 1) / grain
	r := &region{}
	r.remaining.Store(int64(chunks - 1))
	for c := 1; c < chunks; c++ {
		clo := lo + c*grain
		chi := clo + grain
		if chi > hi {
			chi = hi
		}
		p.submit(&task{region: r, run: func() { body(clo, chi) }})
	}
	var firstPanic any
	func() {
		defer func() { firstPanic = recover() }()
		body(lo, lo+grain)
	}()
	p.help(r, rand.New(rand.NewSource(int64(n))))
	if firstPanic != nil {
		panic(firstPanic)
	}
}
