package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
	"pbmg/internal/transfer"
)

// The kernels experiment is the fused-vs-unfused microbenchmark: for every
// operator family and a set of sizes it times the V-cycle downstroke
// (smooth → residual → restrict) and its component fusions both ways —
// the separate oracle passes the cycle used to run, and the fused
// single-pass kernels it runs now — and reports the speedup. With -json
// the result lands in BENCH_kernels.json, making the fusion win a
// committed machine-readable artifact per PR.

// kernelCell is one (family, size, kernel) fused-vs-unfused measurement.
type kernelCell struct {
	Family string  `json:"family"`
	Eps    float64 `json:"eps,omitempty"`
	Dim    int     `json:"dim"`
	N      int     `json:"n"`
	// Kernel names the fused pass under test: "downstroke" (smooth +
	// residual + restrict vs smooth + ResidualRestrict), "smooth+residual"
	// (vs SmoothResidual), "sweep+norm" (vs SweepWithNorm), "upstroke"
	// (interpolate + correct + sweep + residual norm vs
	// InterpolateCorrectSmooth + FinishSmoothWithNorm), "sorx12" (12 SOR
	// sweeps, an f32-vs-f64 row only), and "residual-norm" (serial vs
	// pool-parallel ResidualNorm). "downstroke-wavefront", "upstroke-wavefront"
	// and, in 3D, "sweep-wavefront" time the cycle's serial one-traversal
	// kernels (SmoothResidualRestrict, Upstroke, SORSweepRB with no pool)
	// against the same row kernels run as barrier-separated passes (a
	// one-worker pool: pass order, no threads), at one precision.
	Kernel string `json:"kernel"`
	// Precision is the storage precision of the measured pass: "" / "f64"
	// is the default float64 row. For "f32" rows the baseline (UnfusedNS)
	// is the float64 edition of the same fused kernel and FusedNS its
	// float32 edition, so Speedup is the pure storage-precision win at
	// equal fusion — the number the mixed-precision plans bank on. (The
	// wavefront rows compare drivers, not precisions: both sides are f32.)
	Precision string  `json:"precision,omitempty"`
	UnfusedNS int64   `json:"unfusedNs"`
	FusedNS   int64   `json:"fusedNs"`
	Speedup   float64 `json:"speedup"`
}

// kernelsReport is the machine-readable fused-kernel baseline.
type kernelsReport struct {
	Workers int          `json:"workers"`
	Steals  int64        `json:"steals"`
	GoOS    string       `json:"goos"`
	GoArch  string       `json:"goarch"`
	Cells   []kernelCell `json:"cells"`
}

// emitCell appends one measurement to the report and prints its row.
func emitCell(rep *kernelsReport, famName string, eps float64, dim, n int, kernel, prec string, unfused, fused time.Duration) {
	cell := kernelCell{
		Family: famName, Eps: eps, Dim: dim, N: n,
		Kernel: kernel, Precision: prec,
		UnfusedNS: unfused.Nanoseconds(), FusedNS: fused.Nanoseconds(),
		Speedup: float64(unfused.Nanoseconds()) / float64(fused.Nanoseconds()),
	}
	rep.Cells = append(rep.Cells, cell)
	label := kernel
	if prec != "" {
		label = kernel + "/" + prec
	}
	fmt.Printf("%-10s %6d %-16s %12v %12v %7.2fx\n",
		famName, n, label, unfused, fused, cell.Speedup)
}

// benchBest times op over enough repetitions to damp scheduler noise and
// returns the best observed duration. reset restores the mutated state
// outside the timed region.
func benchBest(reset, op func()) time.Duration {
	const (
		minReps   = 7
		maxReps   = 200
		timeLimit = 250 * time.Millisecond
	)
	best := time.Duration(1 << 62)
	var spent time.Duration
	for rep := 0; rep < maxReps && (rep < minReps || spent < timeLimit); rep++ {
		reset()
		start := time.Now()
		op()
		d := time.Since(start)
		spent += d
		if d < best {
			best = d
		}
	}
	return best
}

// kernelFamilies lists the benchmarked operators with their sizes: every
// 2D family at the acceptance size N=129 and one size up, and the 3D
// family at its acceptance size N=33 and one size up. precNs lists extra
// sizes measured ONLY for the precision comparison (f32 vs f64 editions of
// the fused kernels): the DRAM-resident regime where storage precision
// governs memory traffic — the regular sizes sit inside a server-class
// LLC, where f32's halved footprint buys little. The fused-vs-unfused
// rows are not emitted there: fusion trades passes for working-set width,
// a trade tuned for the cache-resident solve sizes, and judging it at a
// size the solver never runs would judge noise.
func kernelFamilies() []struct {
	name   string
	mk     func(n int) *stencil.Operator
	eps    float64
	ns     []int
	precNs []int
	dim    int
} {
	return []struct {
		name   string
		mk     func(n int) *stencil.Operator
		eps    float64
		ns     []int
		precNs []int
		dim    int
	}{
		// One family at one DRAM-resident size (N=2049: 33MB per f64 grid)
		// is enough to pin the bandwidth-bound behavior; Poisson is the
		// cheapest.
		{"poisson", func(int) *stencil.Operator { return stencil.Poisson() }, 0, []int{129, 257}, []int{2049}, 2},
		{"aniso", func(int) *stencil.Operator { return stencil.Anisotropic(0.01) }, 0.01, []int{129, 257}, nil, 2},
		{"varcoef", func(n int) *stencil.Operator { return stencil.VarCoefOperator(stencil.CoefField(n, 2), 2) }, 2, []int{129, 257}, nil, 2},
		{"poisson3d", func(int) *stencil.Operator { return stencil.Poisson3D() }, 0, []int{33, 65}, nil, 3},
	}
}

// runKernels measures every family's fused and unfused passes and
// optionally writes BENCH_kernels.json.
func runKernels(workers int, seed int64, writeJSON bool, logf func(string, ...any)) error {
	var pool *sched.Pool
	if workers > 1 {
		pool = sched.NewPool(workers)
		defer pool.Close()
	}
	rep := kernelsReport{
		Workers: workers,
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
	}

	fmt.Printf("fused vs unfused cycle kernels, %d workers\n", workers)
	fmt.Printf("%-10s %6s %-16s %12s %12s %8s\n", "family", "N", "kernel", "unfused", "fused", "speedup")
	for _, fam := range kernelFamilies() {
		for _, n := range fam.ns {
			op := fam.mk(n)
			h := 1.0 / float64(n-1)
			omega := op.OmegaSmooth()
			rng := rand.New(rand.NewSource(seed + int64(n)))
			x0 := grid.NewDim(fam.dim, n)
			b := grid.NewDim(fam.dim, n)
			grid.FillRandom(x0, grid.Unbiased, rng)
			grid.FillRandom(b, grid.Unbiased, rng)
			x := x0.Clone()
			r, scratch := grid.NewDim(fam.dim, n), grid.NewDim(fam.dim, n)
			cb := grid.NewDim(fam.dim, grid.Coarsen(n))
			reset := func() { x.CopyFrom(x0) }

			if logf != nil {
				logf("kernels: %s N=%d", fam.name, n)
			}

			emitPrec := func(kernel, prec string, unfused, fused time.Duration) {
				emitCell(&rep, fam.name, fam.eps, fam.dim, n, kernel, prec, unfused, fused)
			}
			emit := func(kernel string, unfused, fused time.Duration) {
				emitPrec(kernel, "", unfused, fused)
			}

			// The V-cycle downstroke: one smoothing sweep, residual,
			// restriction — as three separate passes vs the composed
			// Downstroke kernel the cycle actually runs.
			unfused := benchBest(reset, func() {
				op.SORSweepRB(pool, x, b, h, omega)
				op.Residual(pool, r, x, b, h)
				transfer.Restrict(pool, cb, r)
			})
			fused := benchBest(reset, func() {
				stencil.OpDownstroke(op, pool, cb, x, b, r, scratch, h, omega)
			})
			emit("downstroke", unfused, fused)
			downstrokeF64 := fused

			// The estimation-phase downstroke (no preceding smooth):
			// residual + restrict vs the fused ResidualRestrict.
			unfused = benchBest(reset, func() {
				op.Residual(pool, r, x, b, h)
				transfer.Restrict(pool, cb, r)
			})
			fused = benchBest(reset, func() {
				stencil.OpResidualRestrict(op, pool, cb, x, b, r, scratch, h)
			})
			emit("residual+restrict", unfused, fused)

			unfused = benchBest(reset, func() {
				op.SORSweepRB(pool, x, b, h, omega)
				op.Residual(pool, r, x, b, h)
			})
			fused = benchBest(reset, func() {
				op.SmoothResidual(pool, x, b, r, h, omega)
			})
			emit("smooth+residual", unfused, fused)

			unfused = benchBest(reset, func() {
				op.SORSweepRB(pool, x, b, h, omega)
				op.ResidualNorm(pool, x, b, h)
			})
			fused = benchBest(reset, func() {
				op.SweepWithNorm(pool, x, b, h, omega)
			})
			emit("sweep+norm", unfused, fused)

			// The V-cycle upstroke as the adaptive cycle runs it at the
			// finest level: coarse correction, post-smooth, and the
			// convergence probe. Unfused that is four-plus full-grid passes
			// (interpolate into scratch, add, sweep, residual norm); fused
			// it is UpstrokeNorm: the correction through a row of scratch,
			// the red half-sweep, and the black half-sweep with the
			// delta-emitted norm, in one traversal. Both sides produce
			// bit-identical iterates and norms.
			cx := grid.NewDim(fam.dim, grid.Coarsen(n))
			grid.FillRandom(cx, grid.Unbiased, rng)
			unfused = benchBest(reset, func() {
				transfer.InterpolateAdd(pool, x, cx, scratch)
				op.SORSweepRB(pool, x, b, h, omega)
				op.ResidualNorm(pool, x, b, h)
			})
			fused = benchBest(reset, func() {
				stencil.OpUpstrokeNorm(op, pool, x, b, cx, scratch, h, omega)
			})
			emit("upstroke", unfused, fused)
			upstrokeF64 := fused

			// A 12-sweep relaxation run, the shape of an iterative shortcut
			// solve: measured for the f32-vs-f64 row below.
			sorF64 := benchBest(reset, func() { sorx12(op, pool, x, b, h, omega) })

			// The mixed-precision rows: the fused downstroke, upstroke, and
			// 12-sweep passes rerun with float32 storage against the float64
			// editions just measured — the storage-precision win the tuned
			// f32 and mixed plans bank on. In the cache-resident regime the
			// ratio reads ≈1.0x (scalar f32 arithmetic is no faster than
			// f64); once the working set spills past the LLC, halved bytes
			// mean halved traffic.
			x32 := grid.NewOf[float32](fam.dim, n)
			b32 := grid.NewOf[float32](fam.dim, n)
			r32, scratch32 := grid.NewOf[float32](fam.dim, n), grid.NewOf[float32](fam.dim, n)
			cb32 := grid.NewOf[float32](fam.dim, grid.Coarsen(n))
			cx32 := grid.NewOf[float32](fam.dim, grid.Coarsen(n))
			grid.ConvertInto(b32, b)
			grid.ConvertInto(cx32, cx)
			h32, omega32 := float32(h), float32(omega)
			reset32 := func() { grid.ConvertInto(x32, x0) }
			fused = benchBest(reset32, func() {
				stencil.OpDownstroke(op, pool, cb32, x32, b32, r32, scratch32, h32, omega32)
			})
			emitPrec("downstroke", "f32", downstrokeF64, fused)
			fused = benchBest(reset32, func() {
				stencil.OpUpstrokeNorm(op, pool, x32, b32, cx32, scratch32, h32, omega32)
			})
			emitPrec("upstroke", "f32", upstrokeF64, fused)
			fused = benchBest(reset32, func() { sorx12(op, pool, x32, b32, h32, omega32) })
			emitPrec("sorx12", "f32", sorF64, fused)

			// The parallel-norm satellite: serial vs pool reduction (equal on
			// one worker, informative on many).
			unfused = benchBest(func() {}, func() {
				op.ResidualNorm(nil, x, b, h)
			})
			fused = benchBest(func() {}, func() {
				op.ResidualNorm(pool, x, b, h)
			})
			emit("residual-norm", unfused, fused)
		}

	}

	// The DRAM-resident precision sizes run as a separate pass after every
	// family's cache-resident rows: only the f32-vs-f64 rows are measured
	// here (see kernelFamilies), with the f64 fused kernel timed as the baseline of
	// each row rather than emitted as its own cell. The pass runs last
	// because its grids (~0.5GB at N=2049) must not share a heap epoch with
	// the small cache-resident measurements above — the bloated GC goal and
	// allocation layout they leave behind measurably slow the tiny fused
	// kernels (reproducibly ~2x on the 3D residual+restrict row).
	for _, fam := range kernelFamilies() {
		for _, n := range fam.precNs {
			op := fam.mk(n)
			h := 1.0 / float64(n-1)
			omega := op.OmegaSmooth()
			rng := rand.New(rand.NewSource(seed + int64(n)))
			x0 := grid.NewDim(fam.dim, n)
			b := grid.NewDim(fam.dim, n)
			grid.FillRandom(x0, grid.Unbiased, rng)
			grid.FillRandom(b, grid.Unbiased, rng)
			x := x0.Clone()
			r, scratch := grid.NewDim(fam.dim, n), grid.NewDim(fam.dim, n)
			cb := grid.NewDim(fam.dim, grid.Coarsen(n))
			cx := grid.NewDim(fam.dim, grid.Coarsen(n))
			grid.FillRandom(cx, grid.Unbiased, rng)
			reset := func() { x.CopyFrom(x0) }

			x32 := grid.NewOf[float32](fam.dim, n)
			b32 := grid.NewOf[float32](fam.dim, n)
			r32, scratch32 := grid.NewOf[float32](fam.dim, n), grid.NewOf[float32](fam.dim, n)
			cb32 := grid.NewOf[float32](fam.dim, grid.Coarsen(n))
			cx32 := grid.NewOf[float32](fam.dim, grid.Coarsen(n))
			grid.ConvertInto(b32, b)
			grid.ConvertInto(cx32, cx)
			h32, omega32 := float32(h), float32(omega)
			reset32 := func() { grid.ConvertInto(x32, x0) }

			if logf != nil {
				logf("kernels: %s N=%d (precision)", fam.name, n)
			}

			f64t := benchBest(reset, func() {
				stencil.OpDownstroke(op, pool, cb, x, b, r, scratch, h, omega)
			})
			f32t := benchBest(reset32, func() {
				stencil.OpDownstroke(op, pool, cb32, x32, b32, r32, scratch32, h32, omega32)
			})
			emitCell(&rep, fam.name, fam.eps, fam.dim, n, "downstroke", "f32", f64t, f32t)

			f64t = benchBest(reset, func() {
				stencil.OpUpstrokeNorm(op, pool, x, b, cx, scratch, h, omega)
			})
			f32t = benchBest(reset32, func() {
				stencil.OpUpstrokeNorm(op, pool, x32, b32, cx32, scratch32, h32, omega32)
			})
			emitCell(&rep, fam.name, fam.eps, fam.dim, n, "upstroke", "f32", f64t, f32t)

			f64t = benchBest(reset, func() { sorx12(op, pool, x, b, h, omega) })
			f32t = benchBest(reset32, func() { sorx12(op, pool, x32, b32, h32, omega32) })
			emitCell(&rep, fam.name, fam.eps, fam.dim, n, "sorx12", "f32", f64t, f32t)
		}
	}

	// The wavefront rows, after everything else for the same heap-epoch
	// reason: in 2D from the largest cache-resident solve size up to
	// DRAM-resident, in 3D the two benchmarked sizes.
	passes := sched.NewPool(1)
	defer passes.Close()
	for _, n := range []int{257, 513, 1025, 2049} {
		if logf != nil {
			logf("kernels: poisson N=%d (wavefront)", n)
		}
		wavefrontRows[float64](&rep, passes, stencil.Poisson(), n, seed, "")
		wavefrontRows[float32](&rep, passes, stencil.Poisson(), n, seed, "f32")
	}
	for _, n := range []int{33, 65} {
		if logf != nil {
			logf("kernels: poisson3d N=%d (wavefront)", n)
		}
		wavefrontRows[float64](&rep, passes, stencil.Poisson3D(), n, seed, "")
	}

	if pool != nil {
		rep.Steals = pool.Steals()
	}
	if writeJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_kernels.json", append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote BENCH_kernels.json")
	}
	return nil
}

// sorx12 runs twelve SOR sweeps in place.
func sorx12[T grid.Float](op *stencil.Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T) {
	for s := 0; s < 12; s++ {
		stencil.OpSORSweepRB(op, pool, x, b, h, omega)
	}
}

// wavefrontRows times op's serial one-traversal sweep, downstroke and
// upstroke at precision T against the pass order of the same row kernels,
// which a one-worker pool runs without threads.
func wavefrontRows[T grid.Float](rep *kernelsReport, passes *sched.Pool, op *stencil.Operator, n int, seed int64, prec string) {
	dim, name := op.Dim(), op.Family().String()
	h, omega := T(1/float64(n-1)), T(op.OmegaSmooth())
	rng := rand.New(rand.NewSource(seed + int64(n)))
	fill := func(g *grid.G[T]) *grid.G[T] {
		for i := range g.Data() {
			g.Data()[i] = T(2*rng.Float64() - 1)
		}
		return g
	}
	nc := grid.Coarsen(n)
	x0, b, cx := fill(grid.NewOf[T](dim, n)), fill(grid.NewOf[T](dim, n)), fill(grid.NewOf[T](dim, nc))
	x, r, cb := x0.Clone(), grid.NewOf[T](dim, n), grid.NewOf[T](dim, nc)
	reset := func() { x.CopyFrom(x0) }

	if dim == 3 {
		// No 2D sweep row: two half-sweeps stream so little per point that
		// their one-traversal order reads anywhere from 0.75x to 1.35x of
		// the pass order at N=2049 on one box in one hour — too noisy to report.
		sweep := func(pool *sched.Pool) time.Duration {
			return benchBest(reset, func() { stencil.OpSORSweepRB(op, pool, x, b, h, omega) })
		}
		emitCell(rep, name, 0, dim, n, "sweep-wavefront", prec, sweep(passes), sweep(nil))
	}
	down := func(pool *sched.Pool) time.Duration {
		return benchBest(reset, func() { stencil.OpSmoothResidualRestrict(op, pool, cb, x, b, r, h, omega) })
	}
	emitCell(rep, name, 0, dim, n, "downstroke-wavefront", prec, down(passes), down(nil))
	up := func(pool *sched.Pool) time.Duration {
		return benchBest(reset, func() { stencil.OpUpstroke(op, pool, x, b, cx, r, h, omega) })
	}
	emitCell(rep, name, 0, dim, n, "upstroke-wavefront", prec, up(passes), up(nil))
}
