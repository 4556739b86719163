// Package serve is a boundedgo fixture: goroutine-launch shapes in the
// serving path, from the PR 4 fan-out bug to the sanctioned worker loops.
package serve

import "runtime"

// Retire launches with no visible bound: one goroutine per call,
// unbounded across calls.
func Retire(f func()) {
	go f() // want "naked goroutine launch"
}

// FanOut launches per ranged element: the PR 4 goroutine-per-problem bug.
func FanOut(items []int, f func(int)) {
	for _, it := range items {
		go f(it) // want "goroutine launched per ranged element"
	}
}

// Workers launches inside a counted loop sized by the host's parallelism.
func Workers(f func()) {
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < workers; i++ {
		go f()
	}
}

// WorkersRange uses the Go 1.22 range-over-int worker loop.
func WorkersRange(f func()) {
	const workers = 4
	for range workers {
		go f()
	}
}

// Pieces launches one helper per piece of the data, less the caller's
// own: fan-out through arithmetic.
func Pieces(text []byte, piece int, f func()) {
	n := len(text) / piece
	for range n - 1 {
		go f() // want "sized by n - 1"
	}
}

// CappedPieces caps the helpers at the host's parallelism, as the codec's
// split parse does.
func CappedPieces(text []byte, piece int, f func()) {
	n := len(text) / piece
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		go f()
	}
}

// Param takes its worker count from the caller, who may pass the data's
// size.
func Param(workers int, f func()) {
	for i := 0; i < workers; i++ {
		go f() // want "sized by workers"
	}
}

// Countdown counts down from the data's size to a constant.
func Countdown(items []int, f func()) {
	for i := len(items); i > 0; i-- {
		go f() // want "sized by len\\(items\\)"
	}
}

// Regrown starts at a bound and then counts the data.
func Regrown(items []int, f func()) {
	w := runtime.NumCPU()
	for range items {
		w++
	}
	for range w {
		go f() // want "sized by w"
	}
}

// Width launches as many workers as admission grants the batch.
func Width(n int, f func()) error {
	workers, err := enterBatch(n)
	if err != nil {
		return err
	}
	for range workers {
		go f()
	}
	return nil
}

func enterBatch(n int) (int, error) { return min(n, 8), nil }

// LenBound sizes the loop by the request data: fan-out in disguise.
func LenBound(items []int, f func(int)) {
	for i := 0; i < len(items); i++ {
		go f(i) // want "sized by len\\(items\\)"
	}
}

// Guarded sends on a semaphore channel before launching.
func Guarded(sem chan struct{}, f func()) {
	sem <- struct{}{}
	go f()
}

// Admitted calls an acquire-style admission guard before launching.
func Admitted(f func()) {
	acquireSlot()
	go f()
}

func acquireSlot() {}

// Allowed is annotated: a deliberate one-per-event launch.
func Allowed(f func()) {
	go f() //mglint:allow boundedgo — fixture: one per reload event by design
}

// Spin launches inside a condition-less loop.
func Spin(f func()) {
	for {
		go f() // want "unbounded for loop"
	}
}
