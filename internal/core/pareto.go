package core

import (
	"math"
	"sort"
)

// ParetoPoint is one measured candidate algorithm: the accuracy level it
// achieves, what it costs, and the plan that realizes it — an mg.Plan on
// the discrete accuracy ladder, a *PlanNode in the full dynamic program.
type ParetoPoint[P any] struct {
	Accuracy float64
	Cost     float64
	Plan     P
}

// dominates reports whether a is at least as good as b in both dimensions
// and strictly better in one (higher accuracy, lower cost).
func dominates[P any](a, b ParetoPoint[P]) bool {
	if a.Accuracy < b.Accuracy || a.Cost > b.Cost {
		return false
	}
	return a.Accuracy > b.Accuracy || a.Cost < b.Cost
}

// ParetoFront maintains the set of non-dominated (accuracy, cost)
// candidates — the full dynamic-programming formulation of §2.2, of which
// the discrete accuracy table is the approximation the paper ships. The
// zero value is an empty front.
type ParetoFront[P any] struct {
	pts []ParetoPoint[P]
}

// Add inserts p unless it is dominated by an existing point; points that p
// dominates are evicted. It reports whether p was kept.
func (f *ParetoFront[P]) Add(p ParetoPoint[P]) bool {
	kept := f.pts[:0]
	for _, q := range f.pts {
		if dominates(q, p) || (q.Accuracy == p.Accuracy && q.Cost == p.Cost) {
			return false
		}
		if !dominates(p, q) {
			kept = append(kept, q)
		}
	}
	f.pts = append(kept, p)
	return true
}

// Points returns the front sorted by ascending accuracy.
func (f *ParetoFront[P]) Points() []ParetoPoint[P] {
	out := append([]ParetoPoint[P](nil), f.pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Accuracy < out[j].Accuracy })
	return out
}

// Len returns the number of non-dominated points.
func (f *ParetoFront[P]) Len() int { return len(f.pts) }

// Best returns the cheapest point achieving at least the given accuracy,
// and whether one exists — the "fastest algorithm better than each accuracy
// cutoff line" selection of Figure 2(a).
func (f *ParetoFront[P]) Best(accuracy float64) (ParetoPoint[P], bool) {
	var best ParetoPoint[P]
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
func (f *ParetoFront[P]) thin(max int, anchors []float64) {
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
	kept := make([]ParetoPoint[P], 0, len(keep))
	for i, p := range pts {
		if keep[i] {
			kept = append(kept, p)
		}
	}
	f.pts = kept
}
