package experiments

import (
	"fmt"
	"math"
	"time"

	"pbmg/internal/core"
	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// This file holds the host-machine (wall-clock) experiments: the §2
// complexity table, Figure 6 absolute performance, Figures 7–8 heuristic
// comparisons, and Figure 9 parallel scalability.

// directLevelCap bounds the direct solver's benchmark sizes: factorization
// is O(N⁴) and level 7 (N=129) already takes a fresh factor per solve.
const directLevelCap = 7

// sorLevelCap bounds the iterated-SOR baseline, whose O(N³) total work
// becomes impractical long before multigrid's.
const sorLevelCap = 9

// targetAccuracy is the headline accuracy of Figures 6–8.
const targetAccuracy = 1e9

// fitExponent least-squares fits log(time) = s·log(N) + c and returns s.
func fitExponent(ns []int, times []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range ns {
		if times[i] <= 0 {
			continue
		}
		x, y := math.Log(float64(ns[i])), math.Log(times[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	return (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
}

// factorAndSolve is the paper's direct baseline, LAPACK's DPBSV: a fresh band
// factorization and one solve, past every factor cache on purpose.
func factorAndSolve(p *problem.Problem) {
	direct.NewInteriorSolver(p.Operator(), p.N).Solve(p.NewState(), p.B, p.H)
}

// Complexity regenerates the §2 complexity table by measuring how each
// basic algorithm's time to a 10⁹-accurate solution scales with N.
func (r *Runner) Complexity() (*Table, error) {
	ws := r.workspace(r.pool)
	type algo struct {
		name     string
		paper    string
		maxLevel int
		run      func(level int) float64 // seconds, or 0 if skipped
	}
	solveSeconds := func(level int, count func() int, timed func(iters int)) float64 {
		iters := count()
		if iters < 0 {
			return 0
		}
		return timeIt(func() { timed(iters) }).Seconds()
	}
	algos := []algo{
		{
			name: "Direct", paper: "N^4", maxLevel: min(directLevelCap, r.O.MaxLevel),
			run: func(level int) float64 {
				p := r.test(level, grid.Unbiased)
				return timeIt(func() { factorAndSolve(p) }).Seconds()
			},
		},
		{
			name: "SOR", paper: "N^3", maxLevel: min(sorLevelCap, r.O.MaxLevel),
			run: func(level int) float64 {
				p := r.test(level, grid.Unbiased)
				n := p.N
				omega := stencil.OmegaOpt(n)
				return solveSeconds(level,
					func() int {
						x := p.NewState()
						iters, acc := mg.IterateUntil(targetAccuracy, 200000,
							func() { stencil.OpSORSweepRB(stencil.Poisson(), r.pool, x, p.B, p.H, omega) },
							func() float64 { return p.AccuracyOf(x) })
						if acc < targetAccuracy {
							return -1
						}
						return iters
					},
					func(iters int) {
						x := p.NewState()
						for i := 0; i < iters; i++ {
							stencil.OpSORSweepRB(stencil.Poisson(), r.pool, x, p.B, p.H, omega)
						}
					})
			},
		},
		{
			name: "Multigrid", paper: "N^2", maxLevel: r.O.MaxLevel,
			run: func(level int) float64 {
				p := r.test(level, grid.Unbiased)
				return solveSeconds(level,
					func() int {
						x := p.NewState()
						iters, acc := ws.SolveRefV(x, p.B, targetAccuracy, 200,
							func() float64 { return p.AccuracyOf(x) }, nil)
						if acc < targetAccuracy {
							return -1
						}
						return iters
					},
					func(iters int) {
						x := p.NewState()
						for i := 0; i < iters; i++ {
							ws.RefVCycle(x, p.B, nil)
						}
					})
			},
		},
	}
	t := &Table{
		Title:   "Complexity table (§2): empirical scaling of time-to-10⁹-accuracy",
		Columns: []string{"algorithm", "paper", "fitted"},
		Notes:   "exponent fitted over the largest measured sizes; direct cost is factor+solve (DPBSV profile)",
	}
	for _, a := range algos {
		var ns []int
		var times []float64
		for level := 3; level <= a.maxLevel; level++ {
			s := a.run(level)
			if s > 0 {
				ns = append(ns, grid.SizeOfLevel(level))
				times = append(times, s)
			}
			r.O.logf("complexity %s level %d: %s", a.name, level, fmtSec(s))
		}
		// Fit on the top half of the size range, where asymptotics dominate.
		half := len(ns) / 2
		exp := fitExponent(ns[half:], times[half:])
		t.Rows = append(t.Rows, []string{a.name, a.paper, fmt.Sprintf("N^%.2f", exp)})
	}
	return t, nil
}

// Fig6 regenerates Figure 6: time to solve to accuracy 10⁹ on unbiased
// data for the direct solver, iterated SOR, iterated standard V-cycles
// ("Multigrid"), and the autotuned MULTIGRID-V algorithm.
func (r *Runner) Fig6() (*Table, error) {
	bundle, err := r.tuned("", grid.Unbiased)
	if err != nil {
		return nil, err
	}
	ws := r.workspace(r.pool)
	accIdx := accIndexFor(bundle.V.Acc, targetAccuracy)

	t := &Table{
		Title:   "Figure 6: time to accuracy 1e9, unbiased data",
		Columns: []string{"N", "direct", "sor", "multigrid", "autotuned"},
		Notes:   "'-' marks sizes where a baseline is impractically slow (direct beyond N=129, SOR beyond N=513)",
	}
	for level := 2; level <= r.O.MaxLevel; level++ {
		p := r.test(level, grid.Unbiased)
		n := p.N
		row := []string{fmt.Sprintf("%d", n)}

		directSec := 0.0
		if level <= directLevelCap {
			directSec = timeIt(func() { factorAndSolve(p) }).Seconds()
		}
		row = append(row, fmtSec(directSec))

		// Iterative baselines commit their iteration counts on the
		// calibration set, as the tuned algorithm did in training.
		sor := 0.0
		if level <= sorLevelCap {
			omega := stencil.OmegaOpt(n)
			iters := r.calibIters(level, grid.Unbiased, targetAccuracy, 200000,
				func(q *problem.Problem) *grid.Grid { return q.NewState() },
				func(q *problem.Problem, x *grid.Grid) {
					stencil.OpSORSweepRB(stencil.Poisson(), r.pool, x, q.B, q.H, omega)
				})
			if iters > 0 {
				sor = timeIt(func() {
					y := p.NewState()
					for i := 0; i < iters; i++ {
						stencil.OpSORSweepRB(stencil.Poisson(), r.pool, y, p.B, p.H, omega)
					}
				}).Seconds()
			}
		}
		row = append(row, fmtSec(sor))

		iters := r.calibIters(level, grid.Unbiased, targetAccuracy, 200,
			func(q *problem.Problem) *grid.Grid { return q.NewState() },
			func(q *problem.Problem, x *grid.Grid) { ws.RefVCycle(x, q.B, nil) })
		mgTime := 0.0
		if iters > 0 {
			mgTime = timeIt(func() {
				y := p.NewState()
				for i := 0; i < iters; i++ {
					ws.RefVCycle(y, p.B, nil)
				}
			}).Seconds()
		}
		row = append(row, fmtSec(mgTime))

		ex := &mg.Executor{WS: ws, V: bundle.V}
		tuned := timeIt(func() {
			y := p.NewState()
			ex.SolveV(y, p.B, accIdx)
		}).Seconds()
		row = append(row, fmtSec(tuned))

		t.Rows = append(t.Rows, row)
		r.O.logf("fig6 N=%d done", n)
	}
	return t, nil
}

// Fig7and8 regenerates Figures 7 and 8: the autotuned algorithm against the
// fixed heuristic strategies 10^x/10^9 on biased data. The first table
// holds absolute times (Figure 7), the second the ratio to the autotuned
// algorithm (Figure 8).
func (r *Runner) Fig7and8() (*Table, *Table, error) {
	bundle, err := r.tuned("", grid.Biased)
	if err != nil {
		return nil, nil, err
	}
	tn, err := core.New(core.Config{
		MaxLevel:     r.O.MaxLevel,
		Distribution: grid.Biased,
		Seed:         r.O.Seed,
		Pool:         r.pool,
		Logf:         r.O.Logf,
	})
	if err != nil {
		return nil, nil, err
	}
	type strategy struct {
		name  string
		table *mg.VTable
	}
	var strategies []strategy
	for _, sub := range []float64{1e9, 1e7, 1e5, 1e3, 1e1} {
		vt, err := tn.TuneHeuristic(sub, targetAccuracy)
		if err != nil {
			return nil, nil, err
		}
		strategies = append(strategies, strategy{core.HeuristicName(sub, targetAccuracy), vt})
		r.O.logf("fig7 heuristic %s ready", core.HeuristicName(sub, targetAccuracy))
	}

	cols := []string{"N"}
	for _, s := range strategies {
		cols = append(cols, s.name)
	}
	cols = append(cols, "autotuned")
	abs := &Table{Title: "Figure 7: heuristics vs autotuned, biased data, accuracy 1e9 (absolute time)", Columns: cols}
	rel := &Table{Title: "Figure 8: same data as Figure 7, as time ratio vs autotuned", Columns: cols}

	ws := r.workspace(r.pool)
	accIdx := accIndexFor(bundle.V.Acc, targetAccuracy)
	startLevel := 6 // N=65, as in the paper's x-axis
	if startLevel > r.O.MaxLevel {
		startLevel = r.O.MaxLevel
	}
	for level := startLevel; level <= r.O.MaxLevel; level++ {
		p := r.test(level, grid.Biased)
		rowAbs := []string{fmt.Sprintf("%d", p.N)}
		rowRel := []string{fmt.Sprintf("%d", p.N)}
		var times []float64
		for _, s := range strategies {
			ex := &mg.Executor{WS: ws, V: s.table}
			topIdx := len(s.table.Acc) - 1
			sec := timeIt(func() {
				y := p.NewState()
				ex.SolveV(y, p.B, topIdx)
			}).Seconds()
			times = append(times, sec)
			rowAbs = append(rowAbs, fmtSec(sec))
		}
		ex := &mg.Executor{WS: ws, V: bundle.V}
		tuned := timeIt(func() {
			y := p.NewState()
			ex.SolveV(y, p.B, accIdx)
		}).Seconds()
		rowAbs = append(rowAbs, fmtSec(tuned))
		for _, s := range times {
			rowRel = append(rowRel, fmtRatio(s/tuned))
		}
		rowRel = append(rowRel, "1.000")
		abs.Rows = append(abs.Rows, rowAbs)
		rel.Rows = append(rel.Rows, rowRel)
		r.O.logf("fig7/8 N=%d done", p.N)
	}
	return abs, rel, nil
}

// Fig9 regenerates Figure 9: parallel speedup of the autotuned solver as
// worker threads are added.
func (r *Runner) Fig9(maxWorkers int) (*Table, error) {
	if maxWorkers < 1 {
		maxWorkers = 8
	}
	bundle, err := r.tuned("", grid.Unbiased)
	if err != nil {
		return nil, err
	}
	level := r.O.MaxLevel
	p := r.test(level, grid.Unbiased)
	accIdx := accIndexFor(bundle.V.Acc, targetAccuracy)

	t := &Table{
		Title:   fmt.Sprintf("Figure 9: parallel speedup of autotuned solve, N=%d, accuracy 1e9", p.N),
		Columns: []string{"workers", "time", "speedup"},
		Notes:   "grids below the kernel parallel threshold (N<129) run serially regardless of workers",
	}
	var base time.Duration
	for w := 1; w <= maxWorkers; w++ {
		var pool *sched.Pool
		if w > 1 {
			pool = sched.NewPool(w)
		}
		ws := r.workspace(pool)
		ex := &mg.Executor{WS: ws, V: bundle.V}
		d := timeIt(func() {
			y := p.NewState()
			ex.SolveV(y, p.B, accIdx)
		})
		if pool != nil {
			pool.Close()
		}
		if w == 1 {
			base = d
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w), fmtSec(d.Seconds()),
			fmt.Sprintf("%.2fx", float64(base)/float64(d)),
		})
		r.O.logf("fig9 workers=%d done", w)
	}
	return t, nil
}
