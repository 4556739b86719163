// Package arch prices multigrid operation traces under per-machine cost
// models. The paper evaluates on three architectures (Intel Xeon
// "Harpertown", AMD Opteron "Barcelona", Sun Fire "Niagara"); since that
// hardware is not available, each is simulated by a roofline-style model —
// scalar speed, memory bandwidth, core count, cache size, task overhead —
// calibrated to the machine's published character. The tuner consumes costs
// through the Coster interface, so wall-clock measurement on the host and
// model-based simulation are interchangeable. A Model prices each traced
// operation the same way for the tuner and every figure.
package arch

import (
	"fmt"
	"time"

	"pbmg/internal/mg"
)

// Coster turns one recorded execution into a scalar cost. Implementations
// may use the operation trace (simulated machines), the measured elapsed
// time (the host machine), or both.
type Coster interface {
	Name() string
	Cost(tr *mg.OpTrace, elapsed time.Duration) float64
}

// WallClock is the Coster for the host machine: cost is elapsed seconds.
type WallClock struct{}

// Name implements Coster.
func (WallClock) Name() string { return "host-wallclock" }

// Cost implements Coster.
func (WallClock) Cost(_ *mg.OpTrace, elapsed time.Duration) float64 {
	return elapsed.Seconds()
}

// ForDim returns a coster pricing problems of the given spatial dimension:
// a fresh copy for *Model (the receiver is never mutated, so a caller may
// reuse one Model across tuners of different dimensions), and c itself for
// dimension-independent costers like WallClock.
func ForDim(c Coster, dim int) Coster {
	if m, ok := c.(*Model); ok && m.Dim != dim {
		cp := *m
		cp.Dim = dim
		return &cp
	}
	return c
}

// Model is a deterministic machine cost model. Costs are in abstract time
// units; only ratios matter to the tuner.
type Model struct {
	Name_ string
	// Dim is the spatial dimension of the problems being priced (0 and 2
	// mean 2D; 3 prices N³ grids and the O(N⁷) 3D band factorization).
	// A Model prices one dimension; derive others with ForDim.
	Dim int
	// Cores is the number of hardware threads stencil work spreads over.
	Cores int
	// FlopTime is the time per scalar floating-point operation.
	FlopTime float64
	// MemTime is the time per byte streamed from main memory.
	MemTime float64
	// MemChannels bounds how many cores' worth of memory traffic the
	// machine sustains concurrently.
	MemChannels int
	// CacheBytes is the last-level cache size; operations whose working set
	// fits pay CacheMemFactor of the memory cost.
	CacheBytes float64
	// CacheMemFactor discounts memory cost for cache-resident working sets.
	CacheMemFactor float64
	// TaskOverhead is the fixed cost of spawning a parallel operation.
	TaskOverhead float64
	// CallOverhead is the fixed per-operation cost (dispatch, recursion,
	// loop setup) paid by every kernel pass and direct solve. It is what
	// makes one direct solve cheaper than many small-grid passes, driving
	// the paper's shortcut decisions at coarse levels.
	CallOverhead float64
	// DirectFlopFactor scales the direct solver's effective flop cost
	// relative to stencil flops: dense inner loops run near peak on fast
	// out-of-order x86 cores but poorly on simple in-order ones, so the
	// factor differs per machine and moves the direct-solve cutoff level —
	// the architecture dependence Figure 14 demonstrates.
	DirectFlopFactor float64
	// SerialFraction is the Amdahl serial share of stencil operations.
	SerialFraction float64
	// ParallelMinPoints is the working-set size below which operations run
	// serially (task overhead would dominate).
	ParallelMinPoints int
}

// Name implements Coster.
func (m *Model) Name() string { return m.Name_ }

// TraceBased marks the model as pricing traces only, letting measurement
// code skip high-precision wall-clock sampling.
func (m *Model) TraceBased() {}

// dim3 reports whether the model is pricing 3D problems.
func (m *Model) dim3() bool { return m.Dim == 3 }

// Per-point operation intensities for the 5-point (2D) stencil kernels:
// approximate flop and byte counts per interior grid point.
//
// The byte counts price the FUSED downstroke the executors now run
// (stencil.OpResidualRestrict): the residual pass streams x and b
// but no longer writes a fine residual grid (48 → 40 bytes/point), and the
// restriction consumes residual values from a cache-resident three-row
// window instead of re-reading a fine grid from memory, leaving mostly its
// coarse-grid write traffic (88 → 32 bytes/coarse point). The traversal
// counts in the trace are unchanged — one EvResidual and one EvRestrict
// per downstroke — only their memory intensity shrank.
// The interpolation intensity prices the FUSED upstroke
// (stencil.OpInterpolateCorrectSmooth): the correction is evaluated from
// the coarse rows straight into x during the post-smooth's first
// half-sweep, so the full-size scratch grid's write and re-read disappear (48 → 28 bytes/point: the coarse read amortized 4 ways,
// x's read-modify-write, and no intermediate traffic).
const (
	relaxFlops, relaxBytes       = 8, 48
	residualFlops, residualBytes = 7, 40
	restrictFlops, restrictBytes = 12, 32
	interpFlops, interpBytes     = 5, 28
)

// The 7-point (3D) counterparts: two more stencil reads per relaxation and
// residual, a 27-point restriction consuming the fused three-plane window,
// and a trilinear interpolation that averages up to 8 coarse values. The
// fused residual/restrict/interp byte discounts mirror the 2D ones
// (interp 64 → 36: scratch-free, coarse reads amortized 8 ways).
const (
	relaxFlops3, relaxBytes3       = 10, 64
	residualFlops3, residualBytes3 = 9, 56
	restrictFlops3, restrictBytes3 = 40, 48
	interpFlops3, interpBytes3     = 7, 36
)

// levelSide returns the grid side at level k.
func levelSide(level int) int { return (1 << uint(level)) + 1 }

// stencilCost prices one data-parallel stencil pass over the interior of a
// level-k float64 grid, using a roofline max of compute and memory streams.
// The footprint is two grids of 8-byte words.
func (m *Model) stencilCost(level int, flopsPerPoint, bytesPerPoint float64) float64 {
	n := levelSide(level)
	points := float64(n-2) * float64(n-2)
	footprint := float64(n) * float64(n) * 8 * 2
	if m.dim3() {
		points *= float64(n - 2)
		footprint *= float64(n)
	}
	flopTime := points * flopsPerPoint * m.FlopTime
	memTime := points * bytesPerPoint * m.MemTime
	if footprint <= m.CacheBytes {
		memTime *= m.CacheMemFactor
	}
	if int(points) < m.ParallelMinPoints || m.Cores == 1 {
		return flopTime + memTime
	}
	speedup := 1 / (m.SerialFraction + (1-m.SerialFraction)/float64(m.Cores))
	memPar := float64(m.MemChannels)
	if c := float64(m.Cores); c < memPar {
		memPar = c
	}
	par := flopTime/speedup + memTime/memPar
	return par + m.TaskOverhead
}

// directCost prices one band-Cholesky direct solve at level k: a fresh
// O(n·bw²) factorization plus an O(n·bw) solve, both sequential — the DPBSV
// cost profile the paper's direct choice pays. In 2D the interior matrix
// has m² unknowns at bandwidth m; in 3D, m³ unknowns at bandwidth m².
func (m *Model) directCost(level int) float64 {
	n := levelSide(level)
	mm := float64(n - 2)
	unknowns, bw := mm*mm, mm
	if m.dim3() {
		unknowns, bw = mm*mm*mm, mm*mm
	}
	flops := unknowns*bw*bw + 4*unknowns*bw
	return flops * m.FlopTime * m.DirectFlopFactor
}

// EventCost prices count occurrences of an operation kind at a level, using
// the per-point intensities of the dimension being priced.
func (m *Model) EventCost(kind mg.EventKind, level, count int) float64 {
	c := float64(count)
	base := c * m.CallOverhead
	relF, relB := float64(relaxFlops), float64(relaxBytes)
	resF, resB := float64(residualFlops), float64(residualBytes)
	rstF, rstB := float64(restrictFlops), float64(restrictBytes)
	intF, intB := float64(interpFlops), float64(interpBytes)
	if m.dim3() {
		relF, relB = relaxFlops3, relaxBytes3
		resF, resB = residualFlops3, residualBytes3
		rstF, rstB = restrictFlops3, restrictBytes3
		intF, intB = interpFlops3, interpBytes3
	}
	switch kind {
	case mg.EvRelax, mg.EvIterSolve:
		// A shortcut solve of count sweeps runs the sweeps a smoother runs.
		return base + c*m.stencilCost(level, relF, relB)
	case mg.EvResidual:
		return base + c*m.stencilCost(level, resF, resB)
	case mg.EvRestrict:
		// Work is proportional to the coarse grid written.
		return base + c*m.stencilCost(level-1, rstF, rstB)
	case mg.EvInterp:
		return base + c*m.stencilCost(level, intF, intB)
	case mg.EvDirect:
		return base + c*m.directCost(level)
	default:
		return 0
	}
}

// Cost implements Coster by pricing every recorded operation.
func (m *Model) Cost(tr *mg.OpTrace, _ time.Duration) float64 {
	var total float64
	for k := mg.EvRelax; k <= mg.EvIterSolve; k++ {
		for l := 1; l <= tr.MaxLevel(); l++ {
			if c := tr.Count(k, l); c != 0 {
				total += m.EventCost(k, l, int(c))
			}
		}
	}
	return total
}

// The three simulated testbed machines. Parameters are calibrated to the
// published character of each processor (see REPRODUCTION.md,
// "Substitutions"): Harpertown-class
// Xeons have fast scalar units but a shared front-side bus (few effective
// memory channels); Barcelona has slightly slower cores with an integrated
// memory controller (better bandwidth scaling); Niagara has many slow
// threads with high aggregate bandwidth, which penalizes the sequential
// direct solver and favors parallel relaxations.

// Harpertown models the Intel Xeon E7340 testbed (8 cores).
func Harpertown() *Model {
	return &Model{
		Name_: "intel-harpertown", Cores: 8,
		FlopTime: 1.0, MemTime: 0.60, MemChannels: 2,
		CacheBytes: 8 << 20, CacheMemFactor: 0.15,
		TaskOverhead: 4000, CallOverhead: 1200, DirectFlopFactor: 0.55,
		SerialFraction: 0.02, ParallelMinPoints: 16 << 10,
	}
}

// Barcelona models the AMD Opteron 2356 testbed (8 cores).
func Barcelona() *Model {
	return &Model{
		Name_: "amd-barcelona", Cores: 8,
		FlopTime: 1.25, MemTime: 0.45, MemChannels: 4,
		CacheBytes: 4 << 20, CacheMemFactor: 0.15,
		TaskOverhead: 4000, CallOverhead: 1500, DirectFlopFactor: 1.1,
		SerialFraction: 0.02, ParallelMinPoints: 16 << 10,
	}
}

// Niagara models the Sun Fire T200 testbed (32 hardware threads).
func Niagara() *Model {
	return &Model{
		Name_: "sun-niagara", Cores: 32,
		FlopTime: 4.0, MemTime: 0.50, MemChannels: 8,
		CacheBytes: 3 << 20, CacheMemFactor: 0.25,
		TaskOverhead: 8000, CallOverhead: 2500, DirectFlopFactor: 2.2,
		SerialFraction: 0.01, ParallelMinPoints: 8 << 10,
	}
}

// Models returns the three simulated testbed machines in paper order.
func Models() []*Model {
	return []*Model{Harpertown(), Barcelona(), Niagara()}
}

// ByName returns the model with the given name.
func ByName(name string) (*Model, error) {
	for _, m := range Models() {
		if m.Name_ == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("arch: unknown model %q", name)
}
