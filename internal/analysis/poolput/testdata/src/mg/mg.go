// Package mg is a poolput fixture: the arena checkout/release shapes the
// analyzer tracks, leaking and clean, over sync.Pool and the repo's
// checkout/release naming conventions.
package mg

import "sync"

type buf struct{ data []float64 }

var pool = sync.Pool{New: func() any { return new(buf) }}

// LeakOnEarlyReturn releases only on the happy path: the early return
// leaks the checked-out value.
func LeakOnEarlyReturn(fail bool) int {
	b := pool.Get().(*buf) // want "not released on every path"
	if fail {
		return 0
	}
	pool.Put(b)
	return len(b.data)
}

// DeferOK releases via defer: every path, including panics, is covered.
func DeferOK(fail bool) int {
	b := pool.Get().(*buf)
	defer pool.Put(b)
	if fail {
		return 0
	}
	return len(b.data)
}

// StraightOK releases on its single path after benign field use.
func StraightOK() {
	b := pool.Get().(*buf)
	b.data = b.data[:0]
	pool.Put(b)
}

// PanicPathOK releases on the normal path; the panicking guard path is
// exempt (a panicking solve is not steady state).
func PanicPathOK(n int) {
	b := pool.Get().(*buf)
	if n < 3 {
		panic("side too small")
	}
	pool.Put(b)
}

// EscapeOK returns the checked-out value: the release obligation
// transfers to the caller and local tracking ends without a finding.
func EscapeOK() *buf {
	return get()
}

func get() *buf {
	b := pool.Get().(*buf)
	return b
}

var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// BytesLeak checks out a pooled *[]byte, refills it through the pointer
// and never puts it back.
func BytesLeak(n int) int {
	buf := wirePool.Get().(*[]byte) // want "not released on every path"
	*buf = append((*buf)[:0], byte(n))
	return len(*buf)
}

// BytesDeferOK is the same checkout with the deferred Put.
func BytesDeferOK(n int) int {
	buf := wirePool.Get().(*[]byte)
	defer wirePool.Put(buf)
	*buf = append((*buf)[:0], byte(n))
	return len(*buf)
}

// CheckoutLeak uses the Workspace-arena naming: checkout without release
// on the early return.
func CheckoutLeak(n int) {
	s := checkout(n) // want "arena scratch"
	if n > 4 {
		return
	}
	release(s)
}

// CheckoutOK pairs the checkout with its release on every path.
func CheckoutOK(n int) {
	s := checkout(n)
	if n > 4 {
		release(s)
		return
	}
	release(s)
}

// AcquireLeak uses the acquire* prefix convention.
func AcquireLeak(stop bool) {
	t := acquireTicket() // want "acquired resource"
	if stop {
		return
	}
	put(t)
}

// AllowedLeak would be a finding (the early return leaks) but carries the
// annotation: the intentional-leak escape hatch.
func AllowedLeak(fail bool) {
	b := pool.Get().(*buf) //mglint:allow poolput — fixture: ownership documented out of band
	if fail {
		return
	}
	pool.Put(b)
}

func checkout(n int) []float64 { return make([]float64, n) }
func release(s []float64)      { _ = s }
func acquireTicket() int       { return 1 }
func put(t int)                { _ = t }
