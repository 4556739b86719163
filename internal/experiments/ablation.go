package experiments

import (
	"fmt"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
)

// This file holds ablation studies for the design choices the paper makes
// (REPRODUCTION.md's ablation rows): the smoother restriction of §2.3 (red-black SOR
// over weighted Jacobi), the granularity of the discrete accuracy ladder
// (the §2.3 approximation of the §2.2 full dynamic program), and the full
// Pareto DP itself.

// ablationModel is the machine all ablations are priced on.
func ablationModel() *arch.Model { return arch.Harpertown() }

// tuneWith runs a complete V tune with the given smoother and ladder.
func (r *Runner) tuneWith(sm mg.Smoother, ladder []float64, dist grid.Distribution) (*mg.VTable, error) {
	tn, err := core.New(core.Config{
		Accuracies:   ladder,
		MaxLevel:     r.O.MaxLevel,
		Distribution: dist,
		Seed:         r.O.Seed,
		Coster:       ablationModel(),
		Smoother:     sm,
	})
	if err != nil {
		return nil, err
	}
	return tn.TuneV()
}

// costOfTable prices one tuned solve at the top level and accuracy index.
func (r *Runner) costOfTable(vt *mg.VTable, sm mg.Smoother, dist grid.Distribution, accIdx int) float64 {
	ws := r.workspace(nil)
	ws.Smoother = sm
	p := r.test(r.O.MaxLevel, dist)
	return traceCost(ablationModel(), func(rec mg.Recorder) {
		ex := &mg.Executor{WS: ws, V: vt, Rec: rec}
		x := p.NewState()
		ex.SolveV(x, p.B, accIdx)
	})
}

// SmootherAblation reproduces the paper's §2.3 finding that red-black SOR
// beats weighted Jacobi as the in-cycle smoother: it tunes a full table
// under each smoother and compares the tuned solve cost per accuracy.
func (r *Runner) SmootherAblation() (*Table, error) {
	ladder := core.DefaultAccuracies()
	t := &Table{
		Title:   "Ablation (§2.3): in-cycle smoother — red-black SOR vs weighted Jacobi",
		Columns: []string{"target", "sor-1.15", "jacobi-2/3", "jacobi/sor"},
		Notes:   fmt.Sprintf("tuned solve cost on %s at N=%d, unbiased data", ablationModel().Name(), grid.SizeOfLevel(r.O.MaxLevel)),
	}
	sorT, err := r.tuneWith(mg.SmootherSOR, ladder, grid.Unbiased)
	if err != nil {
		return nil, err
	}
	jacT, err := r.tuneWith(mg.SmootherJacobi, ladder, grid.Unbiased)
	if err != nil {
		return nil, err
	}
	for i, target := range ladder {
		cs := r.costOfTable(sorT, mg.SmootherSOR, grid.Unbiased, i)
		cj := r.costOfTable(jacT, mg.SmootherJacobi, grid.Unbiased, i)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", target), fmt.Sprintf("%.3g", cs), fmt.Sprintf("%.3g", cj),
			fmtRatio(cj / cs),
		})
	}
	return t, nil
}

// LadderAblation measures how the granularity of the discrete accuracy
// ladder affects the tuned algorithm: a single 10⁹ entry (equivalent to the
// paper's Strategy 10⁹ search space), progressively denser ladders, and the
// paper's five-point ladder. More intermediate accuracies give the dynamic
// program more sub-algorithms to compose.
func (r *Runner) LadderAblation() (*Table, error) {
	ladders := []struct {
		name   string
		ladder []float64
	}{
		{"1 target {1e9}", []float64{1e9}},
		{"2 targets {1e1,1e9}", []float64{1e1, 1e9}},
		{"3 targets {1e1,1e5,1e9}", []float64{1e1, 1e5, 1e9}},
		{"5 targets (paper)", core.DefaultAccuracies()},
	}
	t := &Table{
		Title:   "Ablation (§2.2–2.3): accuracy-ladder granularity, tuned cost to reach 1e9",
		Columns: []string{"ladder", "cost@1e9", "vs paper ladder"},
		Notes:   fmt.Sprintf("on %s at N=%d; denser ladders expose cheaper sub-algorithms", ablationModel().Name(), grid.SizeOfLevel(r.O.MaxLevel)),
	}
	var costs []float64
	for _, l := range ladders {
		vt, err := r.tuneWith(mg.SmootherSOR, l.ladder, grid.Unbiased)
		if err != nil {
			return nil, err
		}
		costs = append(costs, r.costOfTable(vt, mg.SmootherSOR, grid.Unbiased, len(l.ladder)-1))
	}
	ref := costs[len(costs)-1]
	for i, l := range ladders {
		t.Rows = append(t.Rows, []string{l.name, fmt.Sprintf("%.3g", costs[i]), fmtRatio(costs[i] / ref)})
	}
	return t, nil
}

// ParetoAblation compares the paper's discrete-ladder approximation (§2.3)
// against the full Pareto dynamic program (§2.2) at every ladder target.
func (r *Runner) ParetoAblation() (*Table, error) {
	tn, err := core.New(core.Config{
		MaxLevel:     r.O.MaxLevel,
		Distribution: grid.Unbiased,
		Seed:         r.O.Seed,
		Coster:       ablationModel(),
	})
	if err != nil {
		return nil, err
	}
	vt, err := tn.TuneV()
	if err != nil {
		return nil, err
	}
	fronts, err := tn.TuneVPareto(core.ParetoConfig{MaxFront: 16})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation (§2.2 vs §2.3): discrete ladder vs full Pareto dynamic program",
		Columns: []string{"target", "discrete", "full-DP", "full-DP plan"},
		Notes:   "training-cost units on intel-harpertown; the discrete table approximates the full DP from above",
	}
	ws := r.workspace(nil)
	p := r.test(r.O.MaxLevel, grid.Unbiased)
	for i, target := range vt.Acc {
		disc := traceCost(ablationModel(), func(rec mg.Recorder) {
			ex := &mg.Executor{WS: ws, V: vt, Rec: rec}
			x := p.NewState()
			ex.SolveV(x, p.B, i)
		})
		pt, ok := fronts[r.O.MaxLevel].Best(target)
		if !ok {
			return nil, fmt.Errorf("experiments: no full-DP plan for %g", target)
		}
		full := traceCost(ablationModel(), func(rec mg.Recorder) {
			x := p.NewState()
			pt.Plan.Execute(ws, x, p.B, rec)
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", target), fmt.Sprintf("%.3g", disc), fmt.Sprintf("%.3g", full),
			pt.Plan.String(),
		})
	}
	return t, nil
}
