package direct

import (
	"sync"
	"testing"

	"pbmg/internal/stencil"
)

func TestCacheReusesSolvers(t *testing.T) {
	var c Cache
	a := c.GetOp(stencil.Poisson(), 9)
	if c.GetOp(stencil.Poisson(), 9) != a {
		t.Fatal("Cache returned distinct solvers for same size")
	}
	if c.GetOp(stencil.Poisson(), 17) == a {
		t.Fatal("Cache returned same solver for different size")
	}
	if c.Len() != 2 || c.Factorizations() != 2 {
		t.Fatalf("Len() = %d, Factorizations() = %d, want 2 and 2", c.Len(), c.Factorizations())
	}
}

// TestCacheConcurrent: concurrent GetOps over several operators and sizes
// factor each key exactly once, hand every caller of a key the same solver,
// and leave one entry per distinct key.
func TestCacheConcurrent(t *testing.T) {
	var c Cache
	ops := []*stencil.Operator{stencil.Poisson(), stencil.Anisotropic(0.25), stencil.Poisson3D()}
	sizes := []int{5, 9, 17}
	type key struct {
		op *stencil.Operator
		n  int
	}
	type got struct {
		key
		s *InteriorSolver
	}
	const per = 8
	done := make(chan got, per*len(ops)*len(sizes))
	for i := 0; i < per; i++ {
		for _, op := range ops {
			for _, n := range sizes {
				go func() {
					// Interleave instrumentation reads with factorizations.
					c.Len()
					done <- got{key{op, n}, c.GetOp(op, n)}
				}()
			}
		}
	}
	first := map[key]*InteriorSolver{}
	for i := 0; i < cap(done); i++ {
		g := <-done
		if f, ok := first[g.key]; !ok {
			first[g.key] = g.s
		} else if f != g.s {
			t.Fatalf("concurrent GetOp(%v, %d) returned distinct solvers", g.op, g.n)
		}
		if g.s.n != g.n || g.s.op != g.op {
			t.Fatalf("GetOp(%v, %d) returned the solver for %v at N=%d", g.op, g.n, g.s.op, g.s.n)
		}
	}
	want := len(ops) * len(sizes)
	if c.Len() != want || c.Factorizations() != int64(want) {
		t.Fatalf("Len() = %d, Factorizations() = %d, want %d distinct keys factored once each", c.Len(), c.Factorizations(), want)
	}
}

// TestCacheBoundedConcurrent: goroutines that each rotate through several
// operators and sizes, so most of their gets hit the lock-free path of an
// entry another goroutine factored, stay race-free and leave exactly one
// entry and one factorization per distinct key.
func TestCacheBoundedConcurrent(t *testing.T) {
	var c Cache
	ops := []*stencil.Operator{stencil.Poisson(), stencil.Anisotropic(0.25), stencil.Poisson3D()}
	sizes := []int{5, 9, 17}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				op := ops[(g+i)%len(ops)]
				n := sizes[i%len(sizes)]
				if s := c.GetOp(op, n); s == nil || s.n != n || s.op != op {
					t.Errorf("GetOp(%v, %d) returned a wrong solver", op, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	want := len(ops) * len(sizes)
	if c.Len() != want || c.Factorizations() != int64(want) {
		t.Fatalf("after concurrent rotation: Len() = %d, Factorizations() = %d, want %d", c.Len(), c.Factorizations(), want)
	}
}

// TestCacheKeysByOperator: one cache holds independent factorizations per
// operator at the same size.
func TestCacheKeysByOperator(t *testing.T) {
	var c Cache
	p := c.GetOp(stencil.Poisson(), 9)
	aniso := stencil.Anisotropic(0.25)
	a1 := c.GetOp(aniso, 9)
	if a1 == p {
		t.Fatal("anisotropic and Poisson operators share a factorization")
	}
	if a2 := c.GetOp(aniso, 9); a1 != a2 {
		t.Fatal("same operator and size should hit the cache")
	}
	if c.Len() != 2 || c.Factorizations() != 2 {
		t.Fatalf("Len() = %d, Factorizations() = %d, want 2 and 2", c.Len(), c.Factorizations())
	}
}

// TestCacheSeparates2DAnd3D: the factor cache must never hand a 2D
// factorization to a 3D request of the same side, or vice versa.
func TestCacheSeparates2DAnd3D(t *testing.T) {
	var c Cache
	s2 := c.GetOp(stencil.Poisson(), 9)
	s3 := c.GetOp(stencil.Poisson3D(), 9)
	if s2 == s3 {
		t.Fatal("cache collided 2D and 3D solvers")
	}
	if s2.op.Dim() != 2 || s3.op.Dim() != 3 {
		t.Fatalf("2D entry is %dD, 3D entry is %dD", s2.op.Dim(), s3.op.Dim())
	}
	if c.GetOp(stencil.Poisson3D(), 9) != s3 {
		t.Fatal("3D factorization not memoized")
	}
}

// TestCachePanickingFactorizationNotPinned: a factorization that panics
// (here: an invalid grid side) must not leave its in-flight entry behind,
// or every distinct panicking key would hold a slot in the map forever.
func TestCachePanickingFactorizationNotPinned(t *testing.T) {
	var c Cache
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("GetOp at N=1 did not panic")
				}
			}()
			c.GetOp(stencil.Poisson(), 1) // side too small: factorization panics
		}()
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("after panicking factorizations, Len() = %d, want 0 (entries must not be pinned)", got)
	}
	if got := c.Factorizations(); got != 0 {
		t.Fatalf("panicking factorizations counted: Factorizations() = %d, want 0", got)
	}
	// The cache still serves good keys.
	if s := c.GetOp(stencil.Poisson(), 9); s == nil || s.n != 9 {
		t.Fatal("cache broken after panicking factorization")
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1", got)
	}
}
