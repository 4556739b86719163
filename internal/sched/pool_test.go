package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSerialPoolRunsInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	sum := 0
	p.ParallelFor(0, 100, 10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 10000
	var hits [n]int32
	p.ParallelFor(0, n, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForEmptyAndNegativeRange(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	called := false
	p.ParallelFor(5, 5, 1, func(lo, hi int) { called = true })
	p.ParallelFor(9, 3, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestParallelForDefaultGrain(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var count atomic.Int64
	p.ParallelFor(0, 1000, 0, func(lo, hi int) {
		count.Add(int64(hi - lo))
	})
	if count.Load() != 1000 {
		t.Fatalf("covered %d iterations, want 1000", count.Load())
	}
}

func TestNestedParallelFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.ParallelFor(0, 8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ParallelFor(0, 100, 10, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 800 {
		t.Fatalf("nested total = %d, want 800", total.Load())
	}
}

func TestTaskPanicPropagatesToCaller(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("panic payload is %T, want *TaskPanic", r)
		}
		if !strings.Contains(tp.String(), "boom") {
			t.Fatalf("unexpected panic payload: %v", tp)
		}
		if len(tp.Stack) == 0 {
			t.Fatal("TaskPanic carries no worker stack")
		}
	}()
	p.ParallelFor(0, 64, 1, func(lo, hi int) {
		if lo == 32 {
			panic("boom")
		}
	})
}

func TestInlinePanicPropagates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("inline panic did not propagate")
		}
		if tp, ok := r.(*TaskPanic); !ok || tp.Value != "first-chunk boom" {
			t.Fatalf("panic payload is %T %v, want *TaskPanic of the first chunk's value", r, r)
		}
	}()
	p.ParallelFor(0, 2, 1, func(lo, hi int) {
		if lo == 0 {
			panic("first-chunk boom")
		}
	})
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(3)
	p.Close()
	p.Close()
	p1 := NewPool(1)
	p1.Close()
	p1.Close()
}

func TestWorkersAccessor(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	if p.workers != 5 {
		t.Fatalf("workers = %d, want 5", p.workers)
	}
	if NewPool(-1).workers < 1 {
		t.Fatal("NewPool(-1) should default to NumCPU")
	}
}

func TestStealsHappenUnderImbalance(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Many tiny one-iteration chunks: the caller and whichever workers
	// took the offer draw them from one counter, and every chunk runs once.
	var count atomic.Int64
	p.ParallelFor(0, 500, 1, func(lo, hi int) {
		s := 0
		for j := 0; j < 1000; j++ {
			s += j
		}
		if s < 0 || hi != lo+1 {
			t.Error("impossible")
		}
		count.Add(1)
	})
	if count.Load() != 500 {
		t.Fatalf("ran %d, want 500", count.Load())
	}
}

// Property: for any range and grain, ParallelFor computes the same sum as a
// serial loop.
func TestParallelForSumProperty(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	f := func(n uint16, g uint8) bool {
		hi := int(n%5000) + 1
		grain := int(g%64) + 1
		var sum atomic.Int64
		p.ParallelFor(0, hi, grain, func(lo, h int) {
			var local int64
			for i := lo; i < h; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		want := int64(hi) * int64(hi-1) / 2
		return sum.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCallersShareOnePool exercises the serving-path invariant:
// many goroutines issue ParallelFor regions against one pool at once,
// including nested regions, and every region must join with exactly
// its own work completed.
func TestConcurrentCallersShareOnePool(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const callers = 16
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				n := 64 + c + round
				var sum atomic.Int64
				p.ParallelFor(0, n, 7, func(lo, hi int) {
					local := int64(0)
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					// A nested region from inside a chunk must not deadlock.
					if lo == 0 {
						p.ParallelFor(0, 2, 1, func(int, int) {})
					}
					sum.Add(local)
				})
				if want := int64(n*(n-1)) / 2; sum.Load() != want {
					errs <- fmt.Sprintf("caller %d round %d: sum %d, want %d", c, round, sum.Load(), want)
					return
				}
				var a, b int64
				p.ParallelFor(0, 2, 1, func(lo, hi int) {
					if lo == 0 {
						a = 1
					} else {
						b = 2
					}
				})
				if a != 1 || b != 2 {
					errs <- fmt.Sprintf("caller %d round %d: a 2-chunk loop dropped a chunk", c, round)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentPanicsStayWithinRegion checks a panic in one caller's region
// is re-raised on that caller only, while other callers' regions complete.
func TestConcurrentPanicsStayWithinRegion(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var clean atomic.Int64
	panicked := make(chan bool, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() { panicked <- recover() != nil }()
		p.ParallelFor(0, 2, 1, func(lo, hi int) {
			if lo == 1 {
				panic("boom")
			}
		})
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			p.ParallelFor(0, 100, 9, func(lo, hi int) { clean.Add(int64(hi - lo)) })
		}
	}()
	wg.Wait()
	if !<-panicked {
		t.Fatal("panicking region did not re-raise on its caller")
	}
	if clean.Load() != 5000 {
		t.Fatalf("clean caller covered %d iterations, want 5000", clean.Load())
	}
}

// TestSplitsIsTheGateOfParallelForPoints: work Splits turns down runs as one
// call covering the whole range; work it accepts is chunked, every chunk at
// least minParallelPoints of work (but for the last).
func TestSplitsIsTheGateOfParallelForPoints(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, tc := range []struct{ n, points int }{{15, 17}, {63, 129}, {64, 129}, {127, 129}, {7, 1089}, {8, 1089}, {31, 1089}, {4, 0}} {
		var calls, covered, small atomic.Int32
		p.ParallelForPoints(1, 1+tc.n, tc.points, func(lo, hi int) {
			calls.Add(1)
			covered.Add(int32(hi - lo))
			if (hi-lo)*tc.points < minParallelPoints {
				small.Add(1)
			}
		})
		splits := p.Splits(tc.n, tc.points)
		if int(covered.Load()) != tc.n || splits != (tc.n*max(tc.points, 1) >= minParallelPoints) {
			t.Fatalf("%d×%d: covered %d, Splits %v", tc.n, tc.points, covered.Load(), splits)
		}
		if !splits && calls.Load() != 1 {
			t.Errorf("%d×%d: %d calls for work Splits turns down, want 1", tc.n, tc.points, calls.Load())
		}
		if splits && small.Load() > 1 {
			t.Errorf("%d×%d: %d of %d chunks under minParallelPoints, want at most the last", tc.n, tc.points, small.Load(), calls.Load())
		}
	}
}

// TestLoopsDoNotWaitOnOtherLoops: a loop's chunks run only on its caller and
// on workers it was offered to, so a loop whose chunks are all blocked, on
// every worker and on its caller, does not hold up another caller's loop.
func TestLoopsDoNotWaitOnOtherLoops(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var entered atomic.Int32
	allIn, release, blocked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(blocked)
		p.ParallelFor(0, 64, 1, func(lo, hi int) {
			if entered.Add(1) == 3 {
				close(allIn) // both workers and the caller are inside
			}
			<-release
		})
	}()
	defer func() { close(release); <-blocked }()
	select {
	case <-allIn:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d goroutines entered the blocking loop, want 3", entered.Load())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ParallelFor(0, 2, 1, func(int, int) {})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a 2-chunk loop waited on another loop's blocked chunks")
	}
}

// TestParallelForAllocatesPerCallNotPerChunk: a pooled loop allocates its
// region and nothing per chunk.
func TestParallelForAllocatesPerCallNotPerChunk(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var sum atomic.Int64
	body := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	var allocs []float64
	for _, chunks := range []int{2, 16, 64} {
		allocs = append(allocs, testing.AllocsPerRun(200, func() { p.ParallelFor(0, chunks, 1, body) }))
	}
	if allocs[0] > 2 || allocs[1] != allocs[0] || allocs[2] != allocs[0] {
		t.Fatalf("allocations per call at 2, 16, 64 chunks = %v, want the same, at most 2", allocs)
	}
}
