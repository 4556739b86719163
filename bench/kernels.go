package main

import (
	"math"
	"math/rand"
	"time"

	"pbmg"
	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
	"pbmg/internal/transfer"
)

// bestNs times f in batches long enough for the clock and returns the
// fastest batch's time per call in nanoseconds.
func bestNs(f func()) float64 {
	inner := 1
	for {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		if time.Since(t0) >= 200*time.Microsecond || inner >= 1<<20 {
			break
		}
		inner *= 4
	}
	bestD := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		bestD = math.Min(bestD, float64(time.Since(t0))/float64(inner))
	}
	return bestD
}

// kernelSet is the bottom rung: the fused cycle kernels, transfers and grid
// copies timed alone, serially, at one storage precision on the workload's
// finest grid and operator.
type kernelSet[T grid.Float] struct {
	op            *stencil.Operator
	x, b, r       *grid.G[T]
	cx, cb        *grid.G[T]
	h, omega      T
	points, bytes float64
}

func newKernelSet[T grid.Float](op *stencil.Operator, n int) *kernelSet[T] {
	dim := op.Dim()
	nc := grid.Coarsen(n)
	k := &kernelSet[T]{
		op: op,
		x:  grid.NewOf[T](dim, n), b: grid.NewOf[T](dim, n), r: grid.NewOf[T](dim, n),
		cx: grid.NewOf[T](dim, nc), cb: grid.NewOf[T](dim, nc),
		h:     T(1 / float64(n-1)),
		omega: T(op.OmegaSmooth()),
	}
	rng := rand.New(rand.NewSource(1))
	for i := range k.b.Data() {
		k.b.Data()[i] = T(rng.Float64() - 0.5)
	}
	k.points = float64(k.x.Points())
	// One sweep streams x in and out and b in, plus the coefficient field of
	// a variable-coefficient operator: computed from array sizes, not
	// measured, so cache misses and halo re-reads are not in it.
	arrays := 3.0
	if op.Coef() != nil {
		arrays = 4
	}
	k.bytes = arrays * k.points * float64(grid.Bits[T]()/8)
	return k
}

func (k *kernelSet[T]) sor(pool *sched.Pool) float64 {
	return bestNs(func() { stencil.OpSORSweepRB(k.op, pool, k.x, k.b, k.h, k.omega) })
}

// kernelMetrics fills the stencil, transfer, grid, direct, sched and
// registry rungs of the ladder.
func kernelMetrics(ev *env, rg *rig, inst *instance, pl map[string]float64) error {
	fs := ev.spec.families[0]
	s := rg.svc[fs.family].Solver()
	n := fs.maxSize
	op := s.Workspace().Operator().At(n)

	k := newKernelSet[float64](op, n)
	k32 := newKernelSet[float32](op, n)
	sorNs := k.sor(nil)
	pl["stencil.sor_ns_per_point"] = sorNs / k.points
	pl["stencil.sor_gbs_computed"] = k.bytes / sorNs
	pl["stencil.sor_f32_ns_per_point"] = k32.sor(nil) / k.points
	pl["stencil.downstroke_ns_per_point"] = bestNs(func() {
		stencil.OpSmoothResidualRestrict(op, nil, k.cb, k.x, k.b, k.r, k.h, k.omega)
	}) / k.points
	pl["stencil.upstroke_ns_per_point"] = bestNs(func() {
		stencil.OpInterpolateCorrectSmooth(op, nil, k.x, k.b, k.cx, k.h, k.omega)
		stencil.OpFinishSmooth(op, nil, k.x, k.b, k.h, k.omega)
	}) / k.points
	pl["stencil.residual_norm_ns_per_point"] = bestNs(func() {
		calibSink += uint64(stencil.OpResidualNorm(op, nil, k.x, k.b, k.h))
	}) / k.points
	pl["transfer.restrict_ns_per_point"] = bestNs(func() { transfer.Restrict(nil, k.cb, k.r) }) / k.points
	pl["transfer.interp_ns_per_point"] = bestNs(func() { transfer.Interpolate(nil, k.r, k.cx) }) / k.points
	pl["grid.convert_ns_per_point"] = bestNs(func() {
		grid.ConvertInto(k32.r, k.x)
		grid.ConvertInto(k.r, k32.r)
	}) / (2 * k.points)
	pl["grid.clone_ns_per_point"] = bestNs(func() { calibSink += uint64(k.x.Clone().N()) }) / k.points

	// sched: the cost of an empty two-chunk region, then the same SOR sweep
	// and the same whole solve on a 2-worker pool against serial.
	pool := sched.NewPool(2)
	pl["sched.parallel_for_overhead_us"] = bestNs(func() {
		pool.ParallelFor(0, 2, 1, func(lo, hi int) {})
	}) / 1e3
	pl["sched.speedup_w2"] = sorNs / k.sor(pool)
	pool.Close()
	e := inst.distinct[0]
	p := e.probs[0]
	x := p.NewState()
	serial := rg.svc[e.family].Solver()
	pooled, err := pbmg.Load(ev.tablePath(e.family), 2)
	if err != nil {
		return err
	}
	defer pooled.Close()
	solve := func(s *pbmg.Solver) func() {
		return func() {
			x.CopyFrom(p.Boundary)
			if serr := s.Solve(x, p.B, e.acc); serr != nil && err == nil {
				err = serr
			}
		}
	}
	pl["sched.solve_speedup_w2"] = bestNs(solve(serial)) / bestNs(solve(pooled))
	steals := pooled.PoolSteals()
	solve(pooled)()
	pl["sched.steals_per_solve"] = float64(pooled.PoolSteals() - steals)

	// direct: at the finest level the tuned plan solves directly on.
	var tr mg.OpTrace
	x.CopyFrom(p.Boundary)
	if serr := serial.SolveTraced(x, p.B, e.acc, &tr); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	level := 1
	for l := tr.MaxLevel(); l > 1; l-- {
		if tr.Count(mg.EvDirect, l) > 0 {
			level = l
			break
		}
	}
	nd := grid.SizeOfLevel(level)
	dop := serial.Workspace().Operator().At(nd)
	t0 := time.Now()
	ds := direct.NewInteriorSolver(dop, nd)
	pl["direct.factor_ms"] = ms(time.Since(t0))
	dx, db := grid.NewDim(dop.Dim(), nd), grid.NewDim(dop.Dim(), nd)
	copy(db.Data(), k.b.Data())
	pl["direct.solve_us"] = bestNs(func() { ds.Solve(dx, db, 1/float64(nd-1)) }) / 1e3

	pl["registry.route_ns"] = bestNs(func() {
		if _, lerr := rg.reg.Lookup(fs.family, 0); lerr != nil && err == nil {
			err = lerr
		}
	})
	return err
}
