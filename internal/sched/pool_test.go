package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
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

func TestDoRunsAllFunctions(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	fns := make([]func(), 50)
	for i := range fns {
		fns[i] = func() { count.Add(1) }
	}
	p.Do(fns...)
	if count.Load() != 50 {
		t.Fatalf("ran %d functions, want 50", count.Load())
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Do()
	ran := false
	p.Do(func() { ran = true })
	if !ran {
		t.Fatal("single function not run")
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
		if recover() == nil {
			t.Fatal("inline panic did not propagate")
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
	if p.Workers() != 5 {
		t.Fatalf("Workers() = %d, want 5", p.Workers())
	}
	if NewPool(-1).Workers() < 1 {
		t.Fatal("NewPool(-1) should default to NumCPU")
	}
}

func TestStealsHappenUnderImbalance(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Many tiny tasks through Do guarantee the helping caller or idle
	// workers must steal from peers.
	var count atomic.Int64
	fns := make([]func(), 500)
	for i := range fns {
		fns[i] = func() {
			s := 0
			for j := 0; j < 1000; j++ {
				s += j
			}
			if s < 0 {
				t.Error("impossible")
			}
			count.Add(1)
		}
	}
	p.Do(fns...)
	if count.Load() != 500 {
		t.Fatalf("ran %d, want 500", count.Load())
	}
}

func TestDequeOrdering(t *testing.T) {
	d := &deque{}
	r := &region{}
	t1 := &task{region: r}
	t2 := &task{region: r}
	t3 := &task{region: r}
	d.pushBottom(t1)
	d.pushBottom(t2)
	d.pushBottom(t3)
	if got := d.stealTop(); got != t1 {
		t.Fatal("stealTop should return oldest task")
	}
	if got := d.popBottom(); got != t3 {
		t.Fatal("popBottom should return newest task")
	}
	if got := d.popBottom(); got != t2 {
		t.Fatal("popBottom should drain remaining task")
	}
	if d.popBottom() != nil || d.stealTop() != nil {
		t.Fatal("empty deque should return nil")
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
// many goroutines issue Do and ParallelFor regions against one pool at
// once, including nested regions, and every region must join with exactly
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
					// A nested region from inside a task must help, not block.
					if lo == 0 {
						p.Do(func() {}, func() {})
					}
					sum.Add(local)
				})
				if want := int64(n*(n-1)) / 2; sum.Load() != want {
					errs <- fmt.Sprintf("caller %d round %d: sum %d, want %d", c, round, sum.Load(), want)
					return
				}
				var a, b int64
				p.Do(func() { a = 1 }, func() { b = 2 })
				if a != 1 || b != 2 {
					errs <- fmt.Sprintf("caller %d round %d: Do dropped a function", c, round)
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
		p.Do(func() {}, func() { panic("boom") })
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
