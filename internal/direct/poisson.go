package direct

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// PoissonSolver is a factored band-Cholesky solver for the interior of the
// discrete Poisson problem T·x = b on an N×N grid with Dirichlet boundary
// values taken from x. The factorization is computed once per grid size and
// reused across solves, as a tuned algorithm would reuse a precomputed plan.
// After construction a PoissonSolver is immutable: Solve reads the factored
// bands and writes only its arguments and a pooled right-hand side of its
// own, so one solver may serve concurrent solves on distinct grids.
type PoissonSolver struct {
	n int // grid side
	m int // interior side n−2
	a *BandMatrix
}

// NewPoissonSolver assembles and factors the scaled interior operator
// (diagonal 4, off-diagonals −1; the h² scaling is applied to the right-hand
// side at solve time). Grid side n must be ≥ 3.
func NewPoissonSolver(n int) *PoissonSolver {
	if n < 3 {
		panic(fmt.Sprintf("direct: grid side %d too small", n))
	}
	a := poissonBand(n)
	if err := a.Factor(); err != nil {
		// The scaled Poisson operator is SPD by construction; failure here
		// is a programming error, not an input condition.
		panic("direct: Poisson operator failed to factor: " + err.Error())
	}
	return &PoissonSolver{n: n, m: n - 2, a: a}
}

// poissonBand assembles the scaled interior operator at grid side n,
// unfactored.
func poissonBand(n int) *BandMatrix {
	m := n - 2
	a := NewBandMatrix(m*m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			k := i*m + j
			a.Set(k, k, 4)
			if j > 0 {
				a.Set(k, k-1, -1)
			}
			if i > 0 {
				a.Set(k, k-m, -1)
			}
		}
	}
	return a
}

// N returns the grid side length the solver was built for.
func (s *PoissonSolver) N() int { return s.n }

// Solve overwrites the interior of x with the exact solution of T·x = b,
// using x's boundary entries as Dirichlet data. h is the mesh spacing.
func (s *PoissonSolver) Solve(x, b *grid.Grid, h float64) {
	if x.N() != s.n || b.N() != s.n {
		panic(fmt.Sprintf("direct: Solve size mismatch: solver %d, x %d, b %d", s.n, x.N(), b.N()))
	}
	m := s.m
	h2 := h * h
	scratch := s.a.rhs.Get().(*[]float64)
	defer s.a.rhs.Put(scratch)
	rhs := *scratch // every entry is assigned below
	for i := 0; i < m; i++ {
		gi := i + 1
		br := b.Row(gi)
		for j := 0; j < m; j++ {
			gj := j + 1
			v := h2 * br[gj]
			// Move known boundary neighbours to the right-hand side.
			if i == 0 {
				v += x.At(0, gj)
			}
			if i == m-1 {
				v += x.At(s.n-1, gj)
			}
			if j == 0 {
				v += x.At(gi, 0)
			}
			if j == m-1 {
				v += x.At(gi, s.n-1)
			}
			rhs[i*m+j] = v
		}
	}
	s.a.Solve(rhs)
	for i := 0; i < m; i++ {
		xr := x.Row(i + 1)
		copy(xr[1:1+m], rhs[i*m:(i+1)*m])
	}
}

// FactorFlops reports the (estimated) cost of the one-time factorization.
func (s *PoissonSolver) FactorFlops() float64 { return s.a.FactorFlops() }

// SolveFlops reports the (estimated) cost of one Solve call.
func (s *PoissonSolver) SolveFlops() float64 { return s.a.SolveFlops() }

// Cache memoizes factored interior solvers by (operator, grid size) so that
// repeated solves at a level amortize the O(N⁴) factorization, mirroring how
// the tuned algorithm reuses the direct method at a fixed cutoff level.
// Cache is safe for concurrent use with factor-once semantics: concurrent
// Gets for one key produce exactly one factorization, and an in-flight
// factorization blocks only callers of that key, never Gets for keys already
// cached. A factored solver is immutable (Solve touches only its arguments),
// so the returned solver may be used from any goroutine. The zero value is
// ready to use and unbounded; SetCapacity (or NewCache) bounds the entry
// count with least-recently-used eviction, so a long-running server that
// sees rotating (operator, size, dim) keys holds a bounded set of
// factorizations instead of growing without limit.
type Cache struct {
	mu      sync.Mutex // guards the index only, never a factorization
	entries map[cacheKey]*cacheEntry
	cap     int          // max completed entries kept; ≤ 0 means unbounded
	clock   atomic.Int64 // logical recency clock for LRU eviction
	ran     atomic.Int64 // factorizations completed, evicted ones included
}

// NewCache returns a cache bounded to at most max completed entries (≤ 0 for
// unbounded).
func NewCache(max int) *Cache {
	c := &Cache{}
	c.cap = max
	return c
}

// cacheKey identifies one factorization: the operator (nil for the 2D
// constant-coefficient Laplacian), the grid side, and the spatial dimension.
// Operators are compared by identity — within one operator family hierarchy
// the operator for a given size is a stable memoized pointer (see
// stencil.Operator.Coarse), so identity is exactly the right granularity.
// The dimension is implied by the operator but kept explicit so a 2D and a
// 3D factorization of the same side can never collide.
type cacheKey struct {
	op  *stencil.Operator
	n   int
	dim int
}

// cacheEntry is one per-key slot: mu serializes the factorization, done
// publishes its completion to the lock-free fast path and to readers like
// Sizes. A mutex rather than sync.Once so that a panicking factorization
// (e.g. an invalid size) leaves the entry retryable instead of poisoned
// with a nil solver. lastUse carries the cache's recency clock for LRU
// eviction; an evicted entry stays valid for callers already holding its
// solver (factored solvers are immutable), it just stops being findable.
type cacheEntry struct {
	mu      sync.Mutex
	done    atomic.Bool
	lastUse atomic.Int64
	s       InteriorSolver
}

// Get returns the cached constant-coefficient Poisson solver for grid side
// n, factoring it on first use.
func (c *Cache) Get(n int) *PoissonSolver {
	return c.GetOp(nil, n).(*PoissonSolver)
}

// GetOp returns the cached solver for the operator at grid side n, factoring
// it on first use. A nil operator (or the Poisson family) uses the
// specialized constant-coefficient path.
func (c *Cache) GetOp(op *stencil.Operator, n int) InteriorSolver {
	dim := 2
	if op != nil {
		dim = op.Dim()
		if op.Family() == stencil.FamilyPoisson {
			op = nil // all 2D Poisson operators share one factorization per size
		}
	}
	key := cacheKey{op: op, n: n, dim: dim}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[cacheKey]*cacheEntry)
	}
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	e.lastUse.Store(c.clock.Add(1))
	c.mu.Unlock()
	if e.done.Load() {
		return e.s
	}
	func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if !e.done.Load() {
			// A panicking factorization propagates to the caller, but the
			// in-flight entry must not stay behind: evictLocked never evicts
			// !done entries, so without this cleanup every distinct panicking
			// key would pin an unevictable slot in the map forever. Drop the
			// entry (identity-checked: a concurrent retry may have replaced
			// it) so the key is re-factored or forgotten instead.
			defer func() {
				if !e.done.Load() {
					c.mu.Lock()
					if c.entries[key] == e {
						delete(c.entries, key)
					}
					c.mu.Unlock()
				}
			}()
			e.s = NewInteriorSolver(op, n)
			c.ran.Add(1)
			e.done.Store(true)
		}
	}()
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return e.s
}

// SetCapacity bounds the cache to at most max completed entries (≤ 0 removes
// the bound), evicting least-recently-used entries immediately if the cache
// is already over the new bound.
func (c *Cache) SetCapacity(max int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = max
	c.evictLocked()
}

// Capacity returns the configured entry bound (≤ 0: unbounded).
func (c *Cache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// Len returns the number of entries currently held (including any whose
// factorization is still in flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Factorizations returns how many factorizations the cache has run, evicted
// ones included: Len counts what is held, this counts the work.
func (c *Cache) Factorizations() int64 { return c.ran.Load() }

// evictLocked drops least-recently-used completed entries until the cache is
// within its bound. Entries whose factorization is still in flight are never
// evicted (their caller is about to use them), so the bound can be exceeded
// transiently by the number of concurrent first-time factorizations.
func (c *Cache) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for len(c.entries) > c.cap {
		var victim cacheKey
		oldest := int64(0)
		found := false
		for k, e := range c.entries {
			if !e.done.Load() {
				continue
			}
			if lu := e.lastUse.Load(); !found || lu < oldest {
				victim, oldest, found = k, lu, true
			}
		}
		if !found {
			return
		}
		delete(c.entries, victim)
	}
}

// Sizes returns the grid sizes whose factorizations have completed (from
// any operator family), for instrumentation.
func (c *Cache) Sizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[int]bool)
	out := make([]int, 0, len(c.entries))
	for k, e := range c.entries {
		if e.done.Load() && !seen[k.n] {
			seen[k.n] = true
			out = append(out, k.n)
		}
	}
	return out
}
