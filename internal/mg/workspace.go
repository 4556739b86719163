package mg

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pbmg/internal/direct"
	"pbmg/internal/faultinject"
	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
	"pbmg/internal/transfer"
)

// Workspace holds the configuration and shared resources behind multigrid
// executions: the worker pool, the smoother choice, the operator and
// the direct-factor cache. All per-solve scratch state (the residual and
// transfer grids a cycle needs at each level) is checked out from a
// sync.Pool-backed arena for exactly the duration of the cycle step that
// needs it, so a single Workspace is safe for concurrent solves: any number
// of goroutines may run cycles against it simultaneously, sharing one set
// of tuned tables, one worker pool, and one direct-factor cache.
//
// The configuration fields (Pool, Smoother, Op, FactorCache) must be
// set before the workspace is shared across goroutines; solves treat them as
// read-only.
type Workspace struct {
	// Pool parallelizes the stencil and transfer kernels. Nil runs serially.
	// A non-nil pool may be shared with other workspaces and with concurrent
	// solves; sched.Pool supports concurrent callers.
	Pool *sched.Pool
	// Smoother selects the in-cycle relaxation kernel. The paper fixes
	// red-black SOR with ω=1.15 after finding it beat weighted Jacobi on
	// its training data (§2.3); SmootherJacobi reproduces that ablation.
	Smoother Smoother
	// Op is the operator family the workspace solves, discretized at the
	// finest grid size it will see; coarser levels are derived on demand via
	// the operator's memoized coarse hierarchy.
	Op *stencil.Operator
	// FactorCache holds the direct factorizations. NewWorkspace gives each
	// workspace its own; several workspaces — one per served operator
	// family — share one by overwriting it before first use.
	FactorCache *direct.Cache

	arena sync.Map // [2]int{n, bits} -> *sync.Pool of *levelBufsG[T]

	// outstanding counts scratch sets currently checked out across every
	// size and precision — the checkout/release balance the pool-hygiene
	// tests assert returns to zero after cancelled, diverged, and panicked
	// solves.
	outstanding atomic.Int64
}

// ScratchOutstanding reports the number of scratch sets currently checked
// out of the arena. It is zero whenever no solve is in flight: every
// abort path (cancellation, divergence, panic) unwinds through the
// `defer release` of each level it entered.
func (ws *Workspace) ScratchOutstanding() int64 { return ws.outstanding.Load() }

// Operator returns the workspace's operator family.
func (ws *Workspace) Operator() *stencil.Operator { return ws.Op }

// opAt resolves the workspace operator for grid size n.
func (ws *Workspace) opAt(n int) *stencil.Operator { return ws.Op.At(n) }

// levelBufs is the scratch set a cycle needs at one grid size n: the
// residual and interpolation scratch at size n, and the coarse right-hand
// side and coarse solution at size (n+1)/2 (absent at n = 3, which has no
// coarser level and is only ever a staging pair), all shaped to the
// workspace operator's dimension. A levelBufs belongs to exactly one cycle
// step at a time; concurrent solves check out distinct sets.
type levelBufsG[T grid.Float] struct {
	n          int
	r, scratch *grid.G[T]
	cb, cx     *grid.G[T]
}

// levelBufs is the float64 scratch set, the shape every f64 cycle step
// checks out.
type levelBufs = levelBufsG[float64]

func newLevelBufs[T grid.Float](dim, n int) *levelBufsG[T] {
	bufs := &levelBufsG[T]{n: n, r: grid.NewOf[T](dim, n), scratch: grid.NewOf[T](dim, n)}
	if n > 3 {
		nc := grid.Coarsen(n)
		bufs.cb, bufs.cx = grid.NewOf[T](dim, nc), grid.NewOf[T](dim, nc)
	}
	return bufs
}

// NewWorkspace returns a workspace solving op on the given pool (nil for
// serial), with the SOR smoother and a factor cache of its own.
func NewWorkspace(pool *sched.Pool, op *stencil.Operator) *Workspace {
	return &Workspace{Pool: pool, Op: op, FactorCache: &direct.Cache{}}
}

// checkout returns a scratch set for grid size n from the arena,
// allocating only when every set for that size is already in use. Callers
// must return it with release; steady-state solves are allocation-free,
// and the total number of live sets is bounded by the number of concurrent
// cycle steps per size, not by the number of solves ever run.
func (ws *Workspace) checkout(n int) *levelBufs { return checkoutOf[float64](ws, n) }

// checkoutOf is checkout at an arbitrary storage precision: the arena keys
// scratch sets by (size, precision), so f32 cycle steps recycle their own
// buffer population without disturbing the f64 one.
func checkoutOf[T grid.Float](ws *Workspace, n int) *levelBufsG[T] {
	if faultinject.Enabled {
		faultinject.Point("mg.pool.checkout") // delay here simulates pool starvation
	}
	key := [2]int{n, grid.Bits[T]()}
	pi, ok := ws.arena.Load(key)
	if !ok {
		if grid.Level(n) < 1 {
			panic(fmt.Sprintf("mg: no scratch buffers for size %d", n))
		}
		// One workspace serves one operator, so the arena's dimension is
		// fixed at the operator's.
		dim := ws.Op.Dim()
		pi, _ = ws.arena.LoadOrStore(key, &sync.Pool{New: func() any { return newLevelBufs[T](dim, n) }})
	}
	ws.outstanding.Add(1)
	return pi.(*sync.Pool).Get().(*levelBufsG[T])
}

// release returns a checked-out scratch set to the arena.
func (ws *Workspace) release(b *levelBufs) { releaseOf(ws, b) }

func releaseOf[T grid.Float](ws *Workspace, b *levelBufsG[T]) {
	pi, _ := ws.arena.Load([2]int{b.n, grid.Bits[T]()})
	pi.(*sync.Pool).Put(b)
	ws.outstanding.Add(-1)
}

// Snapshot is a copy of a solve's initial state held in arena scratch, so
// a diverged attempt can be restarted from the caller's exact bits without
// a fresh full-grid allocation per solve.
type Snapshot struct{ bufs *levelBufs }

// Snapshot copies x into a scratch set checked out of the arena. The caller
// must hand it back with ReleaseSnapshot; until then it counts toward
// ScratchOutstanding like any other checkout.
func (ws *Workspace) Snapshot(x *grid.Grid) Snapshot {
	if dim := ws.Op.Dim(); x.Dim() != dim {
		// Refused before the checkout, so a misuse panic leaks no scratch.
		panic(fmt.Sprintf("mg: Snapshot needs a %dD grid, got %dD (N=%d)", dim, x.Dim(), x.N()))
	}
	bufs := ws.checkout(x.N())
	bufs.r.CopyFrom(x)
	return Snapshot{bufs}
}

// Grid returns the saved state.
func (s Snapshot) Grid() *grid.Grid { return s.bufs.r }

// ReleaseSnapshot returns a snapshot's scratch to the arena.
func (ws *Workspace) ReleaseSnapshot(s Snapshot) { ws.release(s.bufs) }

// SolveDirect overwrites x's interior with the exact solution of T·x = b via
// band Cholesky, using x's boundary as Dirichlet data. The matrix is factored
// once per (operator, size) in the workspace's factor cache.
func (ws *Workspace) SolveDirect(x, b *grid.Grid, rec Recorder) {
	n := x.N()
	ws.FactorCache.GetOp(ws.opAt(n), n).Solve(x, b, 1.0/float64(n-1))
	RecordDirect(rec, grid.Level(n))
}

// solveDirectOf is the direct base case at any storage precision. The band
// Cholesky itself always runs in float64 — at the coarse sizes direct plans
// win, the factorization is compute-bound, so there is nothing to gain from
// f32 storage and everything to lose in factor quality. A float32 call
// converts the problem into a float64 scratch pair from the arena, solves
// exactly, and rounds the solution back.
func solveDirectOf[T grid.Float](ws *Workspace, x, b *grid.G[T], rec Recorder) {
	if x64, ok := any(x).(*grid.Grid); ok {
		ws.SolveDirect(x64, any(b).(*grid.Grid), rec)
		return
	}
	st := checkoutOf[float64](ws, x.N())
	defer releaseOf(ws, st)
	x64, b64 := st.r, st.scratch
	grid.ConvertInto(x64, x)
	grid.ConvertInto(b64, b)
	ws.SolveDirect(x64, b64, rec)
	grid.ConvertInto(x, x64)
}

// SOR runs the given number of red-black SOR sweeps with weight omega,
// recording them as one iterative shortcut solve.
func (ws *Workspace) SOR(x, b *grid.Grid, omega float64, sweeps int, rec Recorder) {
	sorOf(ws, x, b, omega, sweeps, rec)
}

// sorOf is SOR at any storage precision; omega stays a float64 parameter so
// tuned weights round identically on both paths.
func sorOf[T grid.Float](ws *Workspace, x, b *grid.G[T], omega float64, sweeps int, rec Recorder) {
	n := x.N()
	h := T(1.0 / float64(n-1))
	op := ws.opAt(n)
	for s := 0; s < sweeps; s++ {
		stencil.OpSORSweepRB(op, ws.Pool, x, b, h, T(omega))
	}
	recordOf[T](rec, EvIterSolve, grid.Level(n), sweeps)
}

// Smoother selects the relaxation kernel used inside cycles.
type Smoother int

const (
	// SmootherSOR is red-black SOR with ω = 1.15, the paper's choice.
	SmootherSOR Smoother = iota
	// SmootherJacobi is weighted Jacobi with the classic w = 2/3, the
	// alternative the paper evaluated and rejected (§2.3).
	SmootherJacobi
)

// String returns the smoother name.
func (s Smoother) String() string {
	switch s {
	case SmootherSOR:
		return "sor-1.15"
	case SmootherJacobi:
		return "jacobi-2/3"
	default:
		return fmt.Sprintf("Smoother(%d)", int(s))
	}
}

// jacobiWeight is the standard smoothing weight for weighted Jacobi on the
// 5-point Laplacian.
const jacobiWeight = 2.0 / 3.0

// smoothOf runs sweeps of the configured smoother and records them as
// relaxations. tmp is a caller-provided scratch grid of x's size; the SOR
// smoother updates in place and ignores it. The SOR weight is the operator
// family's in-cycle heuristic (stencil.Operator.OmegaSmooth); the Jacobi
// ablation keeps the classic fixed w = 2/3 for every family.
func smoothOf[T grid.Float](ws *Workspace, x, b, tmp *grid.G[T], sweeps int, rec Recorder) {
	n := x.N()
	h := T(1.0 / float64(n-1))
	op := ws.opAt(n)
	switch ws.Smoother {
	case SmootherJacobi:
		for s := 0; s < sweeps; s++ {
			stencil.OpJacobiSweep(op, ws.Pool, tmp, x, b, h, T(jacobiWeight))
			x.CopyFrom(tmp)
		}
	default:
		omega := T(op.OmegaSmooth())
		for s := 0; s < sweeps; s++ {
			stencil.OpSORSweepRB(op, ws.Pool, x, b, h, omega)
		}
	}
	recordOf[T](rec, EvRelax, grid.Level(n), sweeps)
}

// restrictResidualOf computes the coarse right-hand side bufs.cb =
// R·(b − T·x) at x's size, with bufs' fine grids as scratch, in the fused
// ResidualRestrict kernel: one stream over the fine grid, the fine residual
// never materialized. It records one EvResidual and one EvRestrict: the
// trace counts logical operations, and the architecture cost model prices
// their fused traversal intensities.
func restrictResidualOf[T grid.Float](ws *Workspace, x, b *grid.G[T], bufs *levelBufsG[T], rec Recorder) {
	n := x.N()
	lvl := grid.Level(n)
	stencil.OpResidualRestrict(ws.opAt(n), ws.Pool, bufs.cb, x, b, bufs.r, bufs.scratch, T(1.0/float64(n-1)))
	recordOf[T](rec, EvResidual, lvl, 1)
	recordOf[T](rec, EvRestrict, lvl, 1)
}

// estimate is the ESTIMATE step shared by both full-multigrid drivers
// (§2.4): restrict the residual problem to half resolution, hand coarse a
// zeroed coarse state and the restricted residual, and add the interpolated
// correction to x. ESTIMATE has no post-smooth to fuse the correction into;
// the row-fused interpolate-add streams it through a row of scratch.
func (ws *Workspace) estimate(x, b *grid.Grid, rec Recorder, coarse func(cx, cb *grid.Grid)) {
	bufs := ws.checkout(x.N())
	defer ws.release(bufs)
	restrictResidualOf(ws, x, b, bufs, rec)
	bufs.cx.Zero()
	coarse(bufs.cx, bufs.cb)
	transfer.InterpolateAdd(ws.Pool, x, bufs.cx, bufs.scratch)
	recordOf[float64](rec, EvInterp, grid.Level(x.N()), 1)
}

// RecurseWith performs the shared coarse-grid-correction skeleton of
// RECURSE and the reference V-cycle: pre-smooth, restrict the residual
// (fused into one fine-grid pass), delegate the coarse error equation to
// coarseSolve, correct, post-smooth. coarseSolve receives a zeroed coarse
// state and the restricted residual.
func (ws *Workspace) RecurseWith(x, b *grid.Grid, rec Recorder, coarseSolve func(cx, cb *grid.Grid)) {
	recurseWithOf(ws, x, b, rec, coarseSolve)
}

// recurseWithOf is the precision-generic coarse-grid-correction skeleton.
func recurseWithOf[T grid.Float](ws *Workspace, x, b *grid.G[T], rec Recorder, coarseSolve func(cx, cb *grid.G[T])) {
	n := x.N()
	h := T(1.0 / float64(n-1))
	op := ws.opAt(n)
	if faultinject.Enabled {
		faultinject.Point("mg.cycle")
		if faultinject.PointLevel("mg.cycle.nan", grid.Level(n)) {
			x.Data()[len(x.Data())/2] = T(math.NaN())
		}
	}
	if n == 3 {
		solveDirectOf(ws, x, b, rec)
		return
	}
	lvl := grid.Level(n)
	bufs := checkoutOf[T](ws, n)
	defer releaseOf(ws, bufs)

	// Downstroke: pre-smooth, residual, restrict. With the SOR smoother the
	// three passes run as one composed kernel — the sweep's black half
	// emits its residuals for free and the fused restriction evaluates the
	// red half on the fly — so the fine grid is never re-traversed for a
	// standalone residual pass. The Jacobi ablation keeps its sweep apart.
	if ws.Smoother == SmootherSOR {
		stencil.OpDownstroke(op, ws.Pool, bufs.cb, x, b, bufs.r, bufs.scratch, h, T(op.OmegaSmooth()))
		recordOf[T](rec, EvRelax, lvl, 1)
		recordOf[T](rec, EvResidual, lvl, 1)
		recordOf[T](rec, EvRestrict, lvl, 1)
	} else {
		smoothOf(ws, x, b, bufs.scratch, 1, rec)
		restrictResidualOf(ws, x, b, bufs, rec)
	}
	bufs.cx.Zero()
	coarseSolve(bufs.cx, bufs.cb)

	// Upstroke: interpolate, correct, post-smooth. With the SOR smoother the
	// three run as one traversal (Upstroke) — the standalone interpolate and
	// correct full-grid passes disappear. The iterate is bit-identical to the
	// separate passes, which the Jacobi ablation keeps.
	if ws.Smoother == SmootherSOR {
		stencil.OpUpstroke(op, ws.Pool, x, b, bufs.cx, bufs.scratch, h, T(op.OmegaSmooth()))
		recordOf[T](rec, EvInterp, lvl, 1)
		recordOf[T](rec, EvRelax, lvl, 1)
		return
	}
	transfer.InterpolateAdd(ws.Pool, x, bufs.cx, bufs.scratch)
	recordOf[T](rec, EvInterp, lvl, 1)
	smoothOf(ws, x, b, bufs.scratch, 1, rec)
}
