// Unit-stride color-split SOR sweeps (3D). The interleaved red-black loops
// of stencil3d.go step k += 2 through pencils a fraction of a cache line
// long, so each half-sweep touches every cache line of the grid while using
// half of it and presents the compiler with strided loads it cannot
// vectorize. For multi-sweep SOR solves at large sizes this file instead
// packs x and b into the color-split layout (grid.Split: each color's points
// contiguous, see internal/grid/split.go), runs every half-sweep as a
// unit-stride stream over half-width pencils, and unpacks the iterate at the
// solve boundary. The update expressions are evaluated in the same order on
// the same values as the strided kernels, and within a color all updates are
// independent, so pack → sweeps → unpack is bit-identical to the same number
// of strided SORSweepRB calls.
//
// Serial sweeps additionally interleave the two half-sweeps as a plane
// wavefront — red(1); red(i), black(i−1); …; black(n−2) — a temporal
// blocking that keeps each plane resident in cache between its red visit
// and its black visit, turning the sweep's two full-grid passes into one.
// The interleave is exact: a black plane is relaxed only after the red
// planes it reads (i−1, i, i+1) are final. Parallel sweeps keep the two
// barrier-separated half-sweeps, matching the strided kernels'
// chunk-independence contract.
//
// The pack/unpack round trip costs roughly 1.5 sweeps of extra memory
// traffic, so the split path only pays for multi-sweep solves on grids past
// cache scale — SplitWorthwhile gates it, and the arch cost model prices
// EvIterSolve with the same gate so tuned tables see the path the runtime
// actually takes.
//
// The layout is 3D-only. Its 2D edition won ~1.10× over the strided sweeps
// inside 257 ≤ N ≤ 512; the strided 2D sweeps have since become one
// traversal of bounds-check-free row kernels (rows.go, fused.go) and beat it
// by 1.2–1.5× in that window, so it was deleted.
package stencil

import (
	"sync"

	"pbmg/internal/faultinject"
	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// splitScratch recycles Split buffers by shape. A fresh Split per solve
// costs two full-grid allocations whose zeroing alone is ~2 sweeps of
// traffic; recycling makes the split path's overhead just the pack/unpack
// copies. Stale entries in a recycled Split are harmless: Pack overwrites
// every slot the sweeps and Unpack read.
var splitScratch sync.Map // [2]int{n, bits} -> *sync.Pool of *grid.SplitG[T]

func getSplit[T grid.Float](n int) *grid.SplitG[T] {
	key := [2]int{n, grid.Bits[T]()}
	p, ok := splitScratch.Load(key)
	if !ok {
		p, _ = splitScratch.LoadOrStore(key, &sync.Pool{New: func() any {
			return grid.NewSplitOf[T](n)
		}})
	}
	return p.(*sync.Pool).Get().(*grid.SplitG[T])
}

func putSplit[T grid.Float](s *grid.SplitG[T]) {
	if p, ok := splitScratch.Load([2]int{s.N(), grid.Bits[T]()}); ok {
		p.(*sync.Pool).Put(s)
	}
}

const (
	// splitMinSweeps is the minimum sweep count for the split layout: the
	// pack/unpack traffic (~1.5 sweeps' worth) amortizes to <20% overhead at
	// 8 sweeps, below the layout's measured per-sweep win.
	splitMinSweeps = 8
	// splitMinN3 is the smallest 3D grid side where the split layout beats
	// the strided sweeps (smaller grids live in cache, where the strided
	// loads are cheap and pack/unpack is pure overhead). There is no upper
	// bound: strided half-sweeps stride through sub-cache-line pencil
	// segments at any size, so the unit-stride win keeps growing with N.
	splitMinN3 = 65
)

// SplitWorthwhile reports whether a sweeps-long SOR solve on a
// dim-dimensional grid of side n should use the color-split layout. The
// arch cost model mirrors this gate when pricing iterative solves.
func SplitWorthwhile(dim, n, sweeps int) bool {
	return dim == 3 && sweeps >= splitMinSweeps && n >= splitMinN3
}

// SORSweeps runs sweeps red-black SOR sweeps in place on x, choosing the
// color-split unit-stride path when SplitWorthwhile says it wins and the
// strided SORSweepRB loop otherwise. The iterate is bit-identical either
// way.
func (op *Operator) SORSweeps(pool *sched.Pool, x, b *grid.Grid, h, omega float64, sweeps int) {
	OpSORSweeps(op, pool, x, b, h, omega, sweeps)
}

// OpSORSweeps is the precision-generic edition of Operator.SORSweeps.
func OpSORSweeps[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T, sweeps int) {
	if faultinject.Enabled {
		faultinject.Point("stencil.sweep") // slow-kernel injection: one hit per sweeps-call
	}
	if !SplitWorthwhile(x.Dim(), x.N(), sweeps) {
		for s := 0; s < sweeps; s++ {
			OpSORSweepRB(op, pool, x, b, h, omega)
		}
		return
	}
	sorSweepsSplit(pool, x, b, h, omega, sweeps)
}

// sorSweepsSplit is the color-split path: pack x and b, sweep unit-stride,
// unpack x. The sweeps never write boundary entries, so the unpack restores
// x's boundary bit-identically from the pack.
func sorSweepsSplit[T grid.Float](pool *sched.Pool, x, b *grid.G[T], h, omega T, sweeps int) {
	n := x.N()
	sx := getSplit[T](n)
	sb := getSplit[T](n)
	defer putSplit(sx)
	defer putSplit(sb)
	sx.Pack(x)
	sb.Pack(b)
	splitSweeps3(pool, sx, sb, h*h, omega, sweeps)
	sx.Unpack(x)
}

// sweepSplit3 drives sweeps full sweeps from per-plane red and black update
// closures. Serial execution interleaves the halves as a plane wavefront;
// parallel execution runs two barrier-separated half-sweeps.
func sweepSplit3(pool *sched.Pool, n, sweeps int, red, black func(i int)) {
	if pool == nil {
		for s := 0; s < sweeps; s++ {
			red(1)
			for i := 2; i < n-1; i++ {
				red(i)
				black(i - 1)
			}
			black(n - 2)
		}
		return
	}
	for s := 0; s < sweeps; s++ {
		pool.ParallelForPoints(1, n-1, n*n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				red(i)
			}
		})
		pool.ParallelForPoints(1, n-1, n*n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				black(i)
			}
		})
	}
}

// splitSweeps3 runs unit-stride sweeps for the 3D 7-point Laplacian. Each
// (i,j) pencil splits by k-parity s = (i+j)&1; the four cross-pencil
// neighbours of a point are the opposite color at the same half-index.
func splitSweeps3[T grid.Float](pool *sched.Pool, x, b *grid.SplitG[T], h2, omega T, sweeps int) {
	n, w := x.N(), x.W()
	red := func(i int) {
		for j := 1; j < n-1; j++ {
			xr := x.Red3(i, j)
			rowB := x.Black3(i, j)
			upB := x.Black3(i-1, j)
			downB := x.Black3(i+1, j)
			northB := x.Black3(i, j-1)
			southB := x.Black3(i, j+1)
			bR := b.Red3(i, j)
			if (i+j)&1 == 0 {
				for kr := 1; kr < w-1; kr++ {
					gs := (upB[kr] + downB[kr] + northB[kr] + southB[kr] + rowB[kr-1] + rowB[kr] + h2*bR[kr]) * (1.0 / 6.0)
					xr[kr] += omega * (gs - xr[kr])
				}
			} else {
				for kr := 0; kr < w-1; kr++ {
					gs := (upB[kr] + downB[kr] + northB[kr] + southB[kr] + rowB[kr] + rowB[kr+1] + h2*bR[kr]) * (1.0 / 6.0)
					xr[kr] += omega * (gs - xr[kr])
				}
			}
		}
	}
	black := func(i int) {
		for j := 1; j < n-1; j++ {
			xb := x.Black3(i, j)
			rowR := x.Red3(i, j)
			upR := x.Red3(i-1, j)
			downR := x.Red3(i+1, j)
			northR := x.Red3(i, j-1)
			southR := x.Red3(i, j+1)
			bB := b.Black3(i, j)
			if (i+j)&1 == 0 {
				for kb := 0; kb < w-1; kb++ {
					gs := (upR[kb] + downR[kb] + northR[kb] + southR[kb] + rowR[kb] + rowR[kb+1] + h2*bB[kb]) * (1.0 / 6.0)
					xb[kb] += omega * (gs - xb[kb])
				}
			} else {
				for kb := 1; kb < w-1; kb++ {
					gs := (upR[kb] + downR[kb] + northR[kb] + southR[kb] + rowR[kb-1] + rowR[kb] + h2*bB[kb]) * (1.0 / 6.0)
					xb[kb] += omega * (gs - xb[kb])
				}
			}
		}
	}
	sweepSplit3(pool, n, sweeps, red, black)
}
