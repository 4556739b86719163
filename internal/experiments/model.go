package experiments

import (
	"fmt"
	"strings"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
)

// This file holds the simulated-architecture experiments: Figures 10–13
// (relative performance of tuned vs reference algorithms on three
// machines), Figure 14 (architecture-dependent cycle shapes), Figures 4–5
// (call stacks and cycle diagrams), and the §4.3 cross-training penalty.
// All are deterministic: executions are recorded as operation traces and
// priced by the cost models.

// machines lists the simulated testbeds in paper order.
func machines() []*arch.Model { return arch.Models() }

// traceCost runs fn with a recorder and prices the trace under model.
func traceCost(model *arch.Model, fn func(rec mg.Recorder)) float64 {
	var tr mg.OpTrace
	fn(&tr)
	return model.Cost(&tr, 0)
}

// RelativePerformance regenerates one of Figures 10–13: the time of the
// reference full-multigrid, autotuned V, and autotuned full-multigrid
// algorithms relative to the reference iterated V-cycle, per machine.
func (r *Runner) RelativePerformance(target float64, dist grid.Distribution) ([]*Table, error) {
	var tables []*Table
	for _, model := range machines() {
		bundle, err := r.tuned(model.Name(), dist)
		if err != nil {
			return nil, err
		}
		accIdx := accIndexFor(bundle.V.Acc, target)
		ws := r.workspace(nil)

		t := &Table{
			Title: fmt.Sprintf("Relative time vs reference V cycle: accuracy %.0e, %s data, %s",
				target, dist, model.Name()),
			Columns: []string{"N", "refV", "refFullMG", "autoV", "autoFullMG"},
			Notes:   "model-priced operation traces; lower is better, refV ≡ 1",
		}
		for level := 4; level <= r.O.MaxLevel; level++ {
			p := r.test(level, dist)
			// Reference algorithms commit their iteration counts on the
			// calibration set, mirroring how the tuned algorithms committed
			// theirs on training data (max over the same instance count).
			refVIters := r.calibIters(level, dist, target, 500,
				func(p *problem.Problem) *grid.Grid { return p.NewState() },
				func(p *problem.Problem, x *grid.Grid) { ws.RefVCycle(x, p.B, nil) })
			fmgFirst := map[*grid.Grid]bool{}
			refFIters := r.calibIters(level, dist, target, 500,
				func(p *problem.Problem) *grid.Grid { x := p.NewState(); fmgFirst[x] = true; return x },
				func(p *problem.Problem, x *grid.Grid) {
					if fmgFirst[x] {
						ws.RefFullMG(x, p.B, nil)
						delete(fmgFirst, x)
						return
					}
					ws.RefVCycle(x, p.B, nil)
				})
			refV := traceCost(model, func(rec mg.Recorder) {
				x := p.NewState()
				for it := 0; it < refVIters; it++ {
					ws.RefVCycle(x, p.B, rec)
				}
			})
			refF := traceCost(model, func(rec mg.Recorder) {
				x := p.NewState()
				ws.RefFullMG(x, p.B, rec)
				for it := 1; it < refFIters; it++ {
					ws.RefVCycle(x, p.B, rec)
				}
			})
			autoV := traceCost(model, func(rec mg.Recorder) {
				ex := &mg.Executor{WS: ws, V: bundle.V, Rec: rec}
				x := p.NewState()
				ex.SolveV(x, p.B, accIdx)
			})
			autoF := traceCost(model, func(rec mg.Recorder) {
				ex := &mg.Executor{WS: ws, V: bundle.V, F: bundle.F, Rec: rec}
				x := p.NewState()
				ex.SolveFull(x, p.B, accIdx)
			})
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", p.N), "1.000",
				fmtRatio(refF / refV), fmtRatio(autoV / refV), fmtRatio(autoF / refV),
			})
		}
		tables = append(tables, t)
		r.O.logf("relative performance on %s done", model.Name())
	}
	return tables, nil
}

// Fig10 regenerates Figure 10 (accuracy 10⁵, unbiased data).
func (r *Runner) Fig10() ([]*Table, error) { return r.RelativePerformance(1e5, grid.Unbiased) }

// Fig11 regenerates Figure 11 (accuracy 10⁵, biased data).
func (r *Runner) Fig11() ([]*Table, error) { return r.RelativePerformance(1e5, grid.Biased) }

// Fig12 regenerates Figure 12 (accuracy 10⁹, unbiased data).
func (r *Runner) Fig12() ([]*Table, error) { return r.RelativePerformance(1e9, grid.Unbiased) }

// Fig13 regenerates Figure 13 (accuracy 10⁹, biased data).
func (r *Runner) Fig13() ([]*Table, error) { return r.RelativePerformance(1e9, grid.Biased) }

// CycleShapes renders the tuned cycle diagram for one machine at the given
// accuracy (Figure 5/14 notation). full selects FULL-MULTIGRID vs
// MULTIGRID-V.
func (r *Runner) CycleShapes(machine string, dist grid.Distribution, target float64, full bool) (string, error) {
	bundle, err := r.tuned(machine, dist)
	if err != nil {
		return "", err
	}
	accIdx := accIndexFor(bundle.V.Acc, target)
	ws := r.workspace(nil)
	p := r.test(r.O.MaxLevel, dist)
	var log mg.ShapeLog
	ex := &mg.Executor{WS: ws, V: bundle.V, F: bundle.F, Rec: &log}
	x := p.NewState()
	if full {
		ex.SolveFull(x, p.B, accIdx)
	} else {
		ex.SolveV(x, p.B, accIdx)
	}
	return mg.RenderShape(&log), nil
}

// Fig14 regenerates Figure 14: tuned full-multigrid cycle shapes for
// accuracy 10⁵ on unbiased data across the three machines.
func (r *Runner) Fig14() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## Figure 14: tuned full-MG cycles across architectures (accuracy 1e5, unbiased, N=%d)\n",
		grid.SizeOfLevel(r.O.MaxLevel))
	labels := []string{"i", "ii", "iii"}
	for i, model := range machines() {
		shape, err := r.CycleShapes(model.Name(), grid.Unbiased, 1e5, true)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "\n%s) %s:\n%s", labels[i], model.Name(), shape)
	}
	return sb.String(), nil
}

// Fig5 regenerates Figure 5: tuned V and full-MG cycles on the AMD model
// for accuracies 10, 10³, 10⁵, 10⁷, for one distribution.
func (r *Runner) Fig5(dist grid.Distribution) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## Figure 5 (%s data, %s, N=%d)\n", dist, "amd-barcelona", grid.SizeOfLevel(r.O.MaxLevel))
	labels := []string{"i", "ii", "iii", "iv"}
	for _, full := range []bool{false, true} {
		kind := "MULTIGRID-V"
		if full {
			kind = "FULL-MULTIGRID"
		}
		fmt.Fprintf(&sb, "\n%s cycles:\n", kind)
		for ai, target := range []float64{1e1, 1e3, 1e5, 1e7} {
			shape, err := r.CycleShapes("amd-barcelona", dist, target, full)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "\n%s) accuracy %.0e:\n%s", labels[ai], target, shape)
		}
	}
	return sb.String(), nil
}

// Fig4 regenerates Figure 4: the tuned MULTIGRID-V₄ call stacks on the
// Intel model for unbiased and biased training data.
func (r *Runner) Fig4() (string, error) {
	var sb strings.Builder
	idx := accIndexFor(core.DefaultAccuracies(), 1e7) // V₄ ≡ accuracy 10⁷
	for _, dist := range []grid.Distribution{grid.Unbiased, grid.Biased} {
		bundle, err := r.tuned("intel-harpertown", dist)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "## Figure 4: MULTIGRID-V4 call stack, %s data, intel-harpertown, N=%d\n%s\n",
			dist, grid.SizeOfLevel(r.O.MaxLevel), mg.DescribeV(bundle.V, r.O.MaxLevel, idx))
	}
	return sb.String(), nil
}

// CrossTrain regenerates the §4.3 portability study: the cost penalty of
// running a full-MG algorithm tuned on machine A under machine B's cost
// model, relative to B's natively tuned algorithm (accuracy 10⁵, unbiased).
func (r *Runner) CrossTrain() (*Table, error) {
	models := machines()
	const target = 1e5
	dist := grid.Unbiased
	p := r.test(r.O.MaxLevel, dist)

	cost := func(trainedOn, runOn *arch.Model) (float64, error) {
		bundle, err := r.tuned(trainedOn.Name(), dist)
		if err != nil {
			return 0, err
		}
		accIdx := accIndexFor(bundle.V.Acc, target)
		ws := r.workspace(nil)
		return traceCost(runOn, func(rec mg.Recorder) {
			ex := &mg.Executor{WS: ws, V: bundle.V, F: bundle.F, Rec: rec}
			x := p.NewState()
			ex.SolveFull(x, p.B, accIdx)
		}), nil
	}

	t := &Table{
		Title:   fmt.Sprintf("§4.3 cross-training penalty: full-MG tuned on row, run on column (N=%d, accuracy 1e5)", p.N),
		Columns: append([]string{"tuned-on \\ run-on"}, modelNames()...),
		Notes:   "1.000 on the diagonal by construction; off-diagonal >1 is the portability penalty",
	}
	native := make([]float64, len(models))
	for j, runOn := range models {
		c, err := cost(runOn, runOn)
		if err != nil {
			return nil, err
		}
		native[j] = c
	}
	for _, trainedOn := range models {
		row := []string{trainedOn.Name()}
		for j, runOn := range models {
			c, err := cost(trainedOn, runOn)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtRatio(c/native[j]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func modelNames() []string {
	var out []string
	for _, m := range machines() {
		out = append(out, m.Name())
	}
	return out
}
