package core

import (
	"fmt"
	"math"
	"time"

	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/stencil"
)

// This file implements the full dynamic-programming formulation of §2.2,
// which the discrete-accuracy table of §2.3 approximates: instead of
// remembering one algorithm per discrete accuracy p_i, the tuner keeps the
// whole Pareto-optimal set of (accuracy, cost) algorithms at every level
// and substitutes any of them into the recursive step one level up. Plans
// here are self-contained trees (each recursive choice owns its
// sub-algorithm) rather than table indices.

// PlanNode is one self-contained tuned algorithm for a level.
type PlanNode struct {
	Choice mg.Choice `json:"choice"`
	Iters  int       `json:"iters,omitempty"`
	// Sub is the coarse-level sub-algorithm of a recursive plan.
	Sub *PlanNode `json:"sub,omitempty"`
}

// Execute runs the plan on x in place.
func (n *PlanNode) Execute(ws *mg.Workspace, x, b *grid.Grid, rec mg.Recorder) {
	switch n.Choice {
	case mg.ChoiceDirect:
		ws.SolveDirect(x, b, rec)
	case mg.ChoiceSOR:
		ws.SOR(x, b, stencil.OmegaOpt(x.N()), n.Iters, rec)
	case mg.ChoiceRecurse:
		for it := 0; it < n.Iters; it++ {
			ws.RecurseWith(x, b, rec, func(cx, cb *grid.Grid) {
				n.Sub.Execute(ws, cx, cb, rec)
			})
		}
	default:
		panic(fmt.Sprintf("core: invalid plan node choice %v", n.Choice))
	}
}

// String renders the plan compactly, e.g. "rec×3(rec×1(direct))".
func (n *PlanNode) String() string {
	switch n.Choice {
	case mg.ChoiceDirect:
		return "direct"
	case mg.ChoiceSOR:
		return fmt.Sprintf("sor×%d", n.Iters)
	default:
		return fmt.Sprintf("rec×%d(%s)", n.Iters, n.Sub)
	}
}

// ParetoConfig bounds the full-DP search.
type ParetoConfig struct {
	// MaxFront caps the per-level front size (default 10).
	MaxFront int
	// MaxSORSweeps caps the SOR candidate sweep counts (default 100).
	MaxSORSweeps int
	// MaxRecurseIters caps recursive candidate iteration counts (default 20).
	MaxRecurseIters int
}

func (c ParetoConfig) defaults() ParetoConfig {
	if c.MaxFront == 0 {
		c.MaxFront = 10
	}
	if c.MaxSORSweeps == 0 {
		c.MaxSORSweeps = 100
	}
	if c.MaxRecurseIters == 0 {
		c.MaxRecurseIters = 20
	}
	return c
}

// TuneVPareto runs the full dynamic program of §2.2 up to the tuner's
// MaxLevel and returns the Pareto front of algorithms at each level
// (indexed 1..MaxLevel). Accuracy of a candidate is the worst (minimum)
// accuracy across training instances — an algorithm's guaranteed level.
func (t *Tuner) TuneVPareto(pc ParetoConfig) (map[int]*ParetoFront[*PlanNode], error) {
	pc = pc.defaults()
	fronts := make(map[int]*ParetoFront[*PlanNode], t.cfg.MaxLevel)

	base := &ParetoFront[*PlanNode]{}
	basePt, err := t.measureNode(1, &PlanNode{Choice: mg.ChoiceDirect})
	if err != nil {
		return nil, err
	}
	base.Add(basePt)
	fronts[1] = base

	for level := 2; level <= t.cfg.MaxLevel; level++ {
		front := &ParetoFront[*PlanNode]{}
		if level <= t.cfg.DirectMaxLevel {
			pt, err := t.measureNode(level, &PlanNode{Choice: mg.ChoiceDirect})
			if err != nil {
				return nil, err
			}
			front.Add(pt)
		}
		t.addIterativeCandidates(front, level, &PlanNode{Choice: mg.ChoiceSOR}, pc.MaxSORSweeps)
		for _, sub := range fronts[level-1].Points() {
			t.addIterativeCandidates(front, level,
				&PlanNode{Choice: mg.ChoiceRecurse, Sub: sub.Plan}, pc.MaxRecurseIters)
		}
		front.thin(pc.MaxFront, t.cfg.Accuracies)
		if front.Len() == 0 {
			return nil, fmt.Errorf("core: empty Pareto front at level %d", level)
		}
		fronts[level] = front
		t.logf("pareto level %d: %d algorithms on the front", level, front.Len())
	}
	return fronts, nil
}

// measureNode prices a non-iterative plan (direct) at a level.
func (t *Tuner) measureNode(level int, node *PlanNode) (ParetoPoint[*PlanNode], error) {
	probs := t.training(level)
	acc := math.Inf(1)
	for _, p := range probs {
		x := p.NewState()
		node.Execute(t.ws, x, p.B, nil)
		if a := p.AccuracyOf(x); a < acc {
			acc = a
		}
	}
	var tr mg.OpTrace
	x := probs[0].NewState()
	start := time.Now()
	node.Execute(t.ws, x, probs[0].B, &tr)
	cost := t.cfg.Coster.Cost(&tr, time.Since(start))
	return ParetoPoint[*PlanNode]{Accuracy: acc, Cost: cost, Plan: node}, nil
}

// addIterativeCandidates measures proto (an SOR or recurse step) iterated
// 1..cap times, adding one candidate per iteration count: the per-iteration
// step is fixed work, so accuracy is tracked incrementally on every
// training instance while cost scales linearly in the iteration count.
func (t *Tuner) addIterativeCandidates(front *ParetoFront[*PlanNode], level int, proto *PlanNode, cap int) {
	probs := t.training(level)
	one := *proto
	one.Iters = 1
	step := func(x, b *grid.Grid, rec mg.Recorder) { one.Execute(t.ws, x, b, rec) }
	per := t.oneIterOf(probs, step)

	// accs[i][s] is instance i's accuracy after s+1 iterations.
	accs := make([][]float64, len(probs))
	for i, p := range probs {
		accs[i] = make([]float64, cap)
		x := p.NewState()
		for s := 0; s < cap; s++ {
			var rec mg.Recorder
			if per.tr == nil { // a trace coster prices the first step's trace
				per.tr = &mg.OpTrace{}
				rec = per.tr
			}
			step(x, p.B, rec)
			accs[i][s] = p.AccuracyOf(x)
		}
	}
	perIter := t.cfg.Coster.Cost(per.tr, per.dur)
	for s := 0; s < cap; s++ {
		worst := math.Inf(1)
		for i := range probs {
			if accs[i][s] < worst {
				worst = accs[i][s]
			}
		}
		node := *proto
		node.Iters = s + 1
		front.Add(ParetoPoint[*PlanNode]{Accuracy: worst, Cost: float64(s+1) * perIter, Plan: &node})
	}
}
