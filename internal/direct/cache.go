package direct

import (
	"sync"
	"sync/atomic"

	"pbmg/internal/stencil"
)

// Cache memoizes factored interior solvers by (operator, grid side) so that
// repeated solves at a level amortize the O(N⁴) factorization, mirroring how
// the tuned algorithm reuses the direct method at a fixed cutoff level.
// Cache is safe for concurrent use with factor-once semantics: concurrent
// GetOps for one key produce exactly one factorization, and an in-flight
// factorization blocks only callers of that key, never GetOps for keys
// already cached. A factored solver is immutable, so the returned solver may
// be used from any goroutine. The zero value is ready to use.
//
// A cache keeps every factorization it runs; nothing is evicted because the
// keys are finite by construction. An operator comes from one family's
// memoized coarse hierarchy (see stencil.Operator.At), every 2D Poisson
// operator shares one entry per side, and a side is a level no finer than
// the tables that route solves to it were tuned for. A cache lives as long
// as the tables it serves.
type Cache struct {
	mu      sync.Mutex // guards the index only, never a factorization
	entries map[cacheKey]*cacheEntry
	ran     atomic.Int64 // factorizations completed
}

// cacheKey identifies one factorization: the operator, compared by identity,
// and the grid side. Within one operator family the operator for a given
// size is a stable memoized pointer, and the 2D and 3D Poisson operators are
// distinct pointers, so identity is exactly the right granularity.
type cacheKey struct {
	op *stencil.Operator
	n  int
}

// cacheEntry is one per-key slot: mu serializes the factorization, done
// publishes its completion to the lock-free fast path. A mutex rather than
// sync.Once so that a panicking factorization (e.g. an invalid size) leaves
// the key retryable instead of poisoned with a nil solver.
type cacheEntry struct {
	mu   sync.Mutex
	done atomic.Bool
	s    *InteriorSolver
}

// GetOp returns the cached solver for op at grid side n, factoring it on
// first use. op must be resolved to side n (see stencil.Operator.At).
func (c *Cache) GetOp(op *stencil.Operator, n int) *InteriorSolver {
	if op.Family() == stencil.FamilyPoisson {
		op = stencil.Poisson() // all 2D Poisson operators share one factorization per size
	}
	key := cacheKey{op: op, n: n}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[cacheKey]*cacheEntry)
	}
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if e.done.Load() {
		return e.s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done.Load() {
		// A panicking factorization propagates to the caller, but its
		// half-made entry must not stay behind: every distinct panicking key
		// would otherwise hold a slot forever. Drop the entry
		// (identity-checked: a concurrent retry may have replaced it) so the
		// key is re-factored or forgotten instead.
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
	return e.s
}

// Len returns the number of entries currently held (including any whose
// factorization is still in flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Factorizations returns how many factorizations the cache has run. Nothing
// is evicted, so it equals Len whenever no factorization is in flight.
func (c *Cache) Factorizations() int64 { return c.ran.Load() }
