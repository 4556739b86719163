package core

import (
	"fmt"
	"math"
	"sort"
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

// NodePoint is one measured algorithm on a level's Pareto front.
type NodePoint struct {
	Accuracy float64
	Cost     float64
	Node     *PlanNode
}

// NodeFront is the non-dominated set of algorithms at one level.
type NodeFront struct {
	pts []NodePoint
}

// Add inserts p unless dominated; it evicts points p dominates and reports
// whether p was kept.
func (f *NodeFront) Add(p NodePoint) bool {
	kept := f.pts[:0]
	for _, q := range f.pts {
		qDom := q.Accuracy >= p.Accuracy && q.Cost <= p.Cost
		if qDom {
			return false
		}
		pDom := p.Accuracy >= q.Accuracy && p.Cost <= q.Cost
		if !pDom {
			kept = append(kept, q)
		}
	}
	f.pts = append(kept, p)
	return true
}

// Points returns the front sorted by ascending accuracy.
func (f *NodeFront) Points() []NodePoint {
	out := append([]NodePoint(nil), f.pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Accuracy < out[j].Accuracy })
	return out
}

// Len returns the front size.
func (f *NodeFront) Len() int { return len(f.pts) }

// Best returns the cheapest algorithm achieving at least the accuracy.
func (f *NodeFront) Best(accuracy float64) (NodePoint, bool) {
	var best NodePoint
	found := false
	for _, p := range f.pts {
		if p.Accuracy >= accuracy && (!found || p.Cost < best.Cost) {
			best, found = p, true
		}
	}
	return best, found
}

// thin caps the front at roughly max points while always keeping the
// extremes, the cheapest point at or above every anchor accuracy (so the
// discrete ladder's picks survive pruning), and an even spread in
// log-accuracy between them — the pruning the paper applies to the "very
// large" optimal set for efficiency (§2.3).
func (f *NodeFront) thin(max int, anchors []float64) {
	if max < 2 || len(f.pts) <= max {
		return
	}
	pts := f.Points()
	keep := map[int]bool{0: true, len(pts) - 1: true}
	for _, a := range anchors {
		best := -1
		for i, p := range pts {
			if p.Accuracy >= a && (best < 0 || p.Cost < pts[best].Cost) {
				best = i
			}
		}
		if best >= 0 {
			keep[best] = true
		}
	}
	lo := math.Log(pts[0].Accuracy)
	hi := math.Log(pts[len(pts)-1].Accuracy)
	step := (hi - lo) / float64(max-1)
	idx := 1
	for b := 1; b < max-1 && step > 0; b++ {
		targetAcc := lo + float64(b)*step
		bestIdx := -1
		for i := idx; i < len(pts)-1; i++ {
			if math.Log(pts[i].Accuracy) <= targetAcc {
				bestIdx = i
			} else {
				break
			}
		}
		if bestIdx >= 0 {
			keep[bestIdx] = true
			idx = bestIdx + 1
		}
	}
	kept := make([]NodePoint, 0, len(keep))
	for i, p := range pts {
		if keep[i] {
			kept = append(kept, p)
		}
	}
	f.pts = kept
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
func (t *Tuner) TuneVPareto(pc ParetoConfig) (map[int]*NodeFront, error) {
	pc = pc.defaults()
	fronts := make(map[int]*NodeFront, t.cfg.MaxLevel)

	base := &NodeFront{}
	basePt, err := t.measureNode(1, &PlanNode{Choice: mg.ChoiceDirect})
	if err != nil {
		return nil, err
	}
	base.Add(basePt)
	fronts[1] = base

	for level := 2; level <= t.cfg.MaxLevel; level++ {
		front := &NodeFront{}
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
				&PlanNode{Choice: mg.ChoiceRecurse, Sub: sub.Node}, pc.MaxRecurseIters)
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
func (t *Tuner) measureNode(level int, node *PlanNode) (NodePoint, error) {
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
	return NodePoint{Accuracy: acc, Cost: cost, Node: node}, nil
}

// addIterativeCandidates measures proto (an SOR or recurse step) iterated
// 1..cap times, adding one candidate per iteration count: the per-iteration
// step is fixed work, so accuracy is tracked incrementally on every
// training instance while cost scales linearly in the iteration count.
func (t *Tuner) addIterativeCandidates(front *NodeFront, level int, proto *PlanNode, cap int) {
	probs := t.training(level)
	one := *proto
	one.Iters = 1
	step := func(x, b *grid.Grid, rec mg.Recorder) { one.Execute(t.ws, x, b, rec) }
	per, err := t.oneIterOf(probs, step)
	if err != nil {
		return
	}

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
		front.Add(NodePoint{Accuracy: worst, Cost: float64(s+1) * perIter, Node: &node})
	}
}

// BestParetoPlan returns the cheapest full-DP algorithm achieving the given
// accuracy at the tuner's MaxLevel, tuning the fronts on demand.
func (t *Tuner) BestParetoPlan(pc ParetoConfig, accuracy float64) (NodePoint, error) {
	fronts, err := t.TuneVPareto(pc)
	if err != nil {
		return NodePoint{}, err
	}
	pt, ok := fronts[t.cfg.MaxLevel].Best(accuracy)
	if !ok {
		return NodePoint{}, fmt.Errorf("core: no full-DP algorithm reaches accuracy %g at level %d",
			accuracy, t.cfg.MaxLevel)
	}
	return pt, nil
}
