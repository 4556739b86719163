// Package sched runs the data-parallel passes of the stencil and transfer
// kernels on a fixed set of worker goroutines. The paper's runtime (§3.2.3)
// follows Cilk's work stealing because PetaBricks spawns recursive task
// trees; every parallel region here is a flat loop over uniform grid units
// (rows or planes), so a loop is one shared chunk counter that the caller
// and any idle workers draw from until it runs out. There are no queues of
// tasks to balance and nothing to steal: an idle worker simply takes the
// next chunk.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// TaskPanic is the panic value re-raised on a loop's caller when one of its
// chunks panicked. Carrying the original value and the panicking
// goroutine's stack as a typed payload (rather than a formatted string)
// lets a recover boundary upstream — pbmg's Service — classify the failure
// and report where it happened, even though a worker's own stack is gone by
// the time the caller re-panics.
type TaskPanic struct {
	// Value is the chunk's original panic value.
	Value any
	// Stack is the panicking goroutine's stack at the point of the panic.
	Stack []byte
}

func (tp *TaskPanic) String() string {
	return fmt.Sprintf("sched: task panic: %v", tp.Value)
}

// Pool is a fork-join pool with a fixed set of workers.
// A Pool with one worker runs everything inline on the calling goroutine,
// which keeps single-threaded measurements free of scheduling noise.
// Pools must be released with Close; the zero value is not usable.
//
// A Pool is safe for concurrent use: any number of goroutines may call
// ParallelFor simultaneously, including from inside a chunk. A loop's chunks
// run only on its caller and on workers that took its offer, and a worker
// takes an offer only between loops, so a loop never waits on another
// loop's work. Only Close must be
// serialized: it must not run concurrently with ParallelFor or another first
// Close.
type Pool struct {
	work      chan *region // one slot per worker: a loop is offered to every worker even when none is yet receiving
	workers   int
	steals    atomic.Int64 // chunks run by workers, for tests/metrics
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewPool creates a pool with n workers. n < 1 is treated as
// runtime.NumCPU(). A pool with n == 1 spawns no goroutines.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.NumCPU()
	}
	p := &Pool{workers: n}
	if n == 1 {
		return p
	}
	p.work = make(chan *region, n)
	p.wg.Add(n)
	for range n {
		go p.worker()
	}
	return p
}

// Steals returns the number of chunks the workers (not the loops' callers)
// have run so far, for tests and instrumentation.
func (p *Pool) Steals() int64 { return p.steals.Load() }

// Close shuts the workers down. It must not be called concurrently with
// ParallelFor. Close is idempotent and safe to call from several
// goroutines — every caller returns only after the workers have exited, so
// shared owners (e.g. a registry and the solvers it serves) may all Close
// defensively during teardown.
func (p *Pool) Close() {
	if p.workers == 1 {
		return
	}
	p.closeOnce.Do(func() { close(p.work) })
	p.wg.Wait()
}

// worker runs the chunks of every loop it is offered. A loop its caller has
// already finished costs it one failed claim.
func (p *Pool) worker() {
	defer p.wg.Done()
	for r := range p.work {
		p.steals.Add(r.run())
	}
}

// region is one ParallelFor call: chunk c covers [lo+c·grain, lo+(c+1)·grain)
// clipped to hi. Chunks are claimed through next and counted off through
// left; whoever finishes the last one closes done.
type region struct {
	body          func(lo, hi int)
	lo, hi, grain int
	chunks        int64
	next          atomic.Int64
	left          atomic.Int64
	done          chan struct{}
	panicked      atomic.Pointer[TaskPanic] // the first chunk panic, if any
}

// run claims and runs chunks until none are left to claim, and returns how
// many it ran.
func (r *region) run() int64 {
	var ran int64
	for c := r.next.Add(1) - 1; c < r.chunks; c = r.next.Add(1) - 1 {
		r.chunk(int(c))
		ran++
	}
	return ran
}

// chunk runs chunk c, converting a panic into the region's failure, which
// the caller re-raises as a *TaskPanic. A panic that is already a
// *TaskPanic (a nested loop's caller re-panicking inside this chunk) is
// kept as it is, so the outermost caller sees the innermost failure once,
// not a wrapper per nesting level.
func (r *region) chunk(c int) {
	defer func() {
		if v := recover(); v != nil {
			tp, ok := v.(*TaskPanic)
			if !ok {
				tp = &TaskPanic{Value: v, Stack: debug.Stack()}
			}
			r.panicked.CompareAndSwap(nil, tp)
		}
		if r.left.Add(-1) == 0 {
			close(r.done)
		}
	}()
	lo := r.lo + c*r.grain
	r.body(lo, min(lo+r.grain, r.hi))
}

// minParallelPoints is the work size — measured in grid points, not loop
// iterations — below which a data-parallel pass runs serially: offering a
// loop and joining it costs more than the work under it. The stencil and
// transfer kernels share this one threshold across dimensions (a 2D row of
// a level-7 grid and a 3D plane of a level-5 cube carry very different
// point counts, so gating on iteration count alone mis-tunes one dimension
// or the other).
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
// coarse levels off the pool in both dimensions.
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
	grain := max(n/(8*p.workers), (minParallelPoints+pointsPerIter-1)/pointsPerIter)
	p.ParallelFor(lo, hi, grain, body) // serial for one worker
}

// ParallelFor partitions [lo, hi) into chunks of at most grain iterations
// and runs body on each chunk, possibly in parallel. grain <= 0 selects a
// default of (hi-lo)/(8*workers), clamped to at least 1. body must be safe
// to call concurrently on disjoint ranges. If a chunk panics, the others
// still run, and ParallelFor then panics with a *TaskPanic.
//
// The caller offers the loop to the workers, at most one offer per chunk
// beyond the first and none once the offers fill the channel, runs chunks
// itself until none are left to claim, and then waits only for the chunks
// still running on workers.
func (p *Pool) ParallelFor(lo, hi, grain int, body func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = max(n/(8*p.workers), 1)
	}
	if p.workers == 1 || n <= grain {
		body(lo, hi)
		return
	}
	chunks := (n + grain - 1) / grain
	r := &region{body: body, lo: lo, hi: hi, grain: grain, chunks: int64(chunks), done: make(chan struct{})}
	r.left.Store(int64(chunks))
offer:
	for range min(chunks-1, p.workers) {
		select {
		case p.work <- r:
		default:
			break offer // every worker already has a loop waiting: run the rest here
		}
	}
	r.run()
	<-r.done
	if tp := r.panicked.Load(); tp != nil {
		panic(tp)
	}
}
