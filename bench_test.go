// Benchmarks regenerating the measured quantity behind every table and
// figure in the paper's evaluation (§4). Tables used by the tuned solvers
// are trained once per process by wall clock on the host (arch.WallClock,
// training seed 20090101), so the plans, like the timings, belong to the
// machine that runs the benchmarks; the benchmarks then time real
// executions with those plans. Run with:
//
//	go test -bench=. -benchmem
package pbmg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/experiments"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/refsol"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
	"pbmg/internal/transfer"
)

// benchLevel is the grid level most solve benchmarks run at (N = 129).
const benchLevel = 7

var benchState struct {
	once    sync.Once
	err     error
	tuned   *core.Tuned           // V+F tables, unbiased
	heur    map[string]*mg.VTable // Figure 7 heuristic tables, biased
	tunedB  *core.Tuned           // V+F tables, biased
	probs   map[string]*problem.Problem
	iterCap map[string]int
}

// benchInit trains all tables and test problems once per process.
func benchInit(b *testing.B) {
	b.Helper()
	benchState.once.Do(func() {
		benchState.probs = map[string]*problem.Problem{}
		benchState.iterCap = map[string]int{}
		mk := func(dist grid.Distribution) (*core.Tuned, error) {
			tn, err := core.New(core.Config{
				MaxLevel:     benchLevel + 1,
				Distribution: dist,
				Seed:         20090101,
				Coster:       arch.WallClock{},
			})
			if err != nil {
				return nil, err
			}
			return tn.Tune()
		}
		if benchState.tuned, benchState.err = mk(grid.Unbiased); benchState.err != nil {
			return
		}
		if benchState.tunedB, benchState.err = mk(grid.Biased); benchState.err != nil {
			return
		}
		tn, err := core.New(core.Config{
			MaxLevel:     benchLevel + 1,
			Distribution: grid.Biased,
			Seed:         20090101,
			Coster:       arch.WallClock{},
		})
		if err != nil {
			benchState.err = err
			return
		}
		benchState.heur = map[string]*mg.VTable{}
		for _, sub := range []float64{1e1, 1e5, 1e9} {
			vt, err := tn.TuneHeuristic(sub, 1e9)
			if err != nil {
				benchState.err = err
				return
			}
			benchState.heur[core.HeuristicName(sub, 1e9)] = vt
		}
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
}

// benchProblem returns a cached test problem with reference solution.
func benchProblem(b *testing.B, level int, dist grid.Distribution) *problem.Problem {
	return benchInstance(b, "test", 17, level, dist)
}

// benchCalib returns the calibration instance reference algorithms commit
// their iteration counts on (distinct from training and test data).
func benchCalib(b *testing.B, level int, dist grid.Distribution) *problem.Problem {
	return benchInstance(b, "calib", 7919, level, dist)
}

func benchInstance(b *testing.B, kind string, salt, level int, dist grid.Distribution) *problem.Problem {
	b.Helper()
	benchInit(b)
	key := fmt.Sprintf("%s/%d/%s", kind, level, dist)
	p, ok := benchState.probs[key]
	if !ok {
		p = problem.RandomOp(grid.SizeOfLevel(level), dist, rand.New(rand.NewSource(int64(level*salt)+int64(dist))), stencil.Poisson())
		refsol.Attach(p, nil, nil)
		benchState.probs[key] = p
	}
	return p
}

// --- §2 complexity table -------------------------------------------------

// BenchmarkComplexityTable times one solve-to-1e9 of each basic algorithm
// at N=65, the regime where all three are practical (§2 table).
func BenchmarkComplexityTable(b *testing.B) {
	p := benchProblem(b, 6, grid.Unbiased)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := p.NewState()
			ws.SolveDirect(x, p.B, nil) // fresh factor: the DPBSV cost profile
		}
	})
	b.Run("sor", func(b *testing.B) {
		omega := stencil.OmegaOpt(p.N)
		x := p.NewState()
		iters, _ := mg.IterateUntil(1e9, 100000,
			func() { stencil.OpSORSweepRB(stencil.Poisson(), nil, x, p.B, p.H, omega) },
			func() float64 { return p.AccuracyOf(x) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			y := p.NewState()
			for it := 0; it < iters; it++ {
				stencil.OpSORSweepRB(stencil.Poisson(), nil, y, p.B, p.H, omega)
			}
		}
	})
	b.Run("multigrid", func(b *testing.B) {
		x := p.NewState()
		iters, _ := ws.SolveRefV(x, p.B, 1e9, 100, func() float64 { return p.AccuracyOf(x) }, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			y := p.NewState()
			for it := 0; it < iters; it++ {
				ws.RefVCycle(y, p.B, nil)
			}
		}
	})
}

// --- Figure 6: basic algorithms vs autotuned at accuracy 1e9 -------------

func BenchmarkFig6AutotunedV(b *testing.B) {
	p := benchProblem(b, benchLevel, grid.Unbiased)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	ex := &mg.Executor{WS: ws, V: benchState.tuned.V}
	accIdx := len(benchState.tuned.V.Acc) - 1 // 1e9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := p.NewState()
		ex.SolveV(x, p.B, accIdx)
	}
}

func BenchmarkFig6ReferenceMultigrid(b *testing.B) {
	p := benchProblem(b, benchLevel, grid.Unbiased)
	calib := benchCalib(b, benchLevel, grid.Unbiased)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	x := calib.NewState()
	iters, _ := ws.SolveRefV(x, calib.B, 1e9, 100, func() float64 { return calib.AccuracyOf(x) }, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := p.NewState()
		for it := 0; it < iters; it++ {
			ws.RefVCycle(y, p.B, nil)
		}
	}
}

// --- Figures 7/8: heuristic strategies vs autotuned ----------------------

func BenchmarkFig7Heuristics(b *testing.B) {
	p := benchProblem(b, benchLevel, grid.Biased)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	for name, vt := range benchState.heur {
		b.Run(name, func(b *testing.B) {
			ex := &mg.Executor{WS: ws, V: vt}
			top := len(vt.Acc) - 1
			for i := 0; i < b.N; i++ {
				x := p.NewState()
				ex.SolveV(x, p.B, top)
			}
		})
	}
	b.Run("autotuned", func(b *testing.B) {
		ex := &mg.Executor{WS: ws, V: benchState.tunedB.V}
		top := len(benchState.tunedB.V.Acc) - 1
		for i := 0; i < b.N; i++ {
			x := p.NewState()
			ex.SolveV(x, p.B, top)
		}
	})
}

// --- Figure 9: parallel speedup ------------------------------------------

func BenchmarkFig9Speedup(b *testing.B) {
	p := benchProblem(b, benchLevel+1, grid.Unbiased) // N=257, above the parallel threshold
	accIdx := len(benchState.tuned.V.Acc) - 1
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var pool *sched.Pool
			if workers > 1 {
				pool = sched.NewPool(workers)
				defer pool.Close()
			}
			ws := mg.NewWorkspace(pool, stencil.Poisson())
			ex := &mg.Executor{WS: ws, V: benchState.tuned.V}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := p.NewState()
				ex.SolveV(x, p.B, accIdx)
			}
		})
	}
}

// --- Figures 10–13: tuned vs reference algorithms ------------------------

// benchRelative times the four algorithms of Figures 10–13 at one
// (accuracy, distribution) cell on the host machine.
func benchRelative(b *testing.B, target float64, dist grid.Distribution, bundle func() *core.Tuned) {
	p := benchProblem(b, benchLevel, dist)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	accIdx := 0
	for i, a := range bundle().V.Acc {
		if a >= target {
			accIdx = i
			break
		}
	}
	calib := benchCalib(b, benchLevel, dist)
	b.Run("referenceV", func(b *testing.B) {
		x := calib.NewState()
		iters, _ := ws.SolveRefV(x, calib.B, target, 200, func() float64 { return calib.AccuracyOf(x) }, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			y := p.NewState()
			for it := 0; it < iters; it++ {
				ws.RefVCycle(y, p.B, nil)
			}
		}
	})
	b.Run("referenceFullMG", func(b *testing.B) {
		x := calib.NewState()
		iters, _ := ws.SolveRefFullMG(x, calib.B, target, 200, func() float64 { return calib.AccuracyOf(x) }, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			y := p.NewState()
			ws.RefFullMG(y, p.B, nil)
			for it := 1; it < iters; it++ {
				ws.RefVCycle(y, p.B, nil)
			}
		}
	})
	b.Run("autotunedV", func(b *testing.B) {
		ex := &mg.Executor{WS: ws, V: bundle().V}
		for i := 0; i < b.N; i++ {
			x := p.NewState()
			ex.SolveV(x, p.B, accIdx)
		}
	})
	b.Run("autotunedFullMG", func(b *testing.B) {
		ex := &mg.Executor{WS: ws, V: bundle().V, F: bundle().F}
		for i := 0; i < b.N; i++ {
			x := p.NewState()
			ex.SolveFull(x, p.B, accIdx)
		}
	})
}

func BenchmarkFig10(b *testing.B) {
	benchInit(b)
	benchRelative(b, 1e5, grid.Unbiased, func() *core.Tuned { return benchState.tuned })
}

func BenchmarkFig11(b *testing.B) {
	benchInit(b)
	benchRelative(b, 1e5, grid.Biased, func() *core.Tuned { return benchState.tunedB })
}

func BenchmarkFig12(b *testing.B) {
	benchInit(b)
	benchRelative(b, 1e9, grid.Unbiased, func() *core.Tuned { return benchState.tuned })
}

func BenchmarkFig13(b *testing.B) {
	benchInit(b)
	benchRelative(b, 1e9, grid.Biased, func() *core.Tuned { return benchState.tunedB })
}

// --- Figures 4/5/14: shape extraction and rendering ----------------------

func BenchmarkFig5CycleRender(b *testing.B) {
	p := benchProblem(b, benchLevel, grid.Unbiased)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	for i := 0; i < b.N; i++ {
		var log mg.ShapeLog
		ex := &mg.Executor{WS: ws, V: benchState.tuned.V, Rec: &log}
		x := p.NewState()
		ex.SolveV(x, p.B, 2)
		if s := mg.RenderShape(&log); len(s) == 0 {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkFig4Describe(b *testing.B) {
	benchInit(b)
	for i := 0; i < b.N; i++ {
		if s := mg.DescribeV(benchState.tuned.V, benchLevel+1, 3); len(s) == 0 {
			b.Fatal("empty description")
		}
	}
}

// --- §4.3 cross-training and the tuner itself ----------------------------

// BenchmarkCrossTrainEvaluation times pricing one tuned execution under a
// foreign cost model, the unit of the §4.3 portability study.
func BenchmarkCrossTrainEvaluation(b *testing.B) {
	p := benchProblem(b, benchLevel, grid.Unbiased)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	model := arch.Niagara()
	for i := 0; i < b.N; i++ {
		var tr mg.OpTrace
		ex := &mg.Executor{WS: ws, V: benchState.tuned.V, F: benchState.tuned.F, Rec: &tr}
		x := p.NewState()
		ex.SolveFull(x, p.B, 2)
		if model.Cost(&tr, 0) <= 0 {
			b.Fatal("non-positive cost")
		}
	}
}

// BenchmarkTuner times a complete dynamic-programming tuning run (V and
// full-MG tables) at a small level under a deterministic cost model.
func BenchmarkTuner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tn, err := core.New(core.Config{
			MaxLevel:     5,
			Distribution: grid.Unbiased,
			Seed:         int64(i),
			Coster:       arch.Barcelona(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tn.Tune(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentPipeline runs the full Figure 10 pipeline (tune three
// machines, price four algorithms per size) at a reduced level.
func BenchmarkExperimentPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Opts{MaxLevel: 4, Seed: int64(i + 1)})
		if _, err := r.Fig10(); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// --- serving path: one tuned solver, many concurrent clients -------------

// BenchmarkSolveConcurrent measures multi-client throughput on one shared
// tuned solver, the serving configuration behind SolveBatch and Service:
// tuned tables, direct-factor cache, and scratch arena are shared while
// clients solve independent requests. Kernels run serially (pool nil) so
// scaling comes purely from solve-level concurrency; on a machine with ≥4
// CPUs the 4-client case should show ≥2× the single-client throughput.
func BenchmarkSolveConcurrent(b *testing.B) {
	benchInit(b)
	p := benchProblem(b, benchLevel, grid.Unbiased)
	target := benchState.tuned.V.Acc[len(benchState.tuned.V.Acc)-1] // 1e9
	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			s, err := newSolver(benchState.tuned, nil)
			if err != nil {
				b.Fatal(err)
			}
			// Warm the factor cache so the timed region is steady-state serving.
			warm := p.NewState()
			if err := s.Solve(warm, p.B, target); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < b.N; i += clients {
						x := p.NewState()
						if err := s.Solve(x, p.B, target); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// --- kernel microbenchmarks (the substrate everything rests on) ----------

func BenchmarkKernels(b *testing.B) {
	p := benchProblem(b, benchLevel+1, grid.Unbiased)
	n := p.N
	h := p.H
	x := p.NewState()
	r := grid.New(n)
	coarse := grid.New((n + 1) / 2)
	b.Run("sor-sweep", func(b *testing.B) {
		b.SetBytes(int64(n * n * 8))
		for i := 0; i < b.N; i++ {
			stencil.OpSORSweepRB(stencil.Poisson(), nil, x, p.B, h, 1.15)
		}
	})
	b.Run("residual", func(b *testing.B) {
		b.SetBytes(int64(n * n * 8))
		for i := 0; i < b.N; i++ {
			stencil.OpResidual(stencil.Poisson(), nil, r, x, p.B, h)
		}
	})
	b.Run("restrict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			transfer.Restrict(nil, coarse, r)
		}
	})
	b.Run("interpolate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			transfer.Interpolate(nil, r, coarse)
		}
	})
	b.Run("direct-factor-solve-65", func(b *testing.B) {
		p65 := benchProblem(b, 6, grid.Unbiased)
		ws := mg.NewWorkspace(nil, stencil.Poisson())
		for i := 0; i < b.N; i++ {
			y := p65.NewState()
			ws.SolveDirect(y, p65.B, nil)
		}
	})
}
