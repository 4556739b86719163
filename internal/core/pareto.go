package core

import (
	"sort"

	"pbmg/internal/mg"
)

// ParetoPoint is one measured candidate algorithm: the accuracy level it
// achieves, what it costs, and the plan on the discrete accuracy ladder
// that realizes it.
type ParetoPoint struct {
	Accuracy float64
	Cost     float64
	Plan     mg.Plan
}

// dominates reports whether a is at least as good as b in both dimensions
// and strictly better in one (higher accuracy, lower cost).
func dominates(a, b ParetoPoint) bool {
	if a.Accuracy < b.Accuracy || a.Cost > b.Cost {
		return false
	}
	return a.Accuracy > b.Accuracy || a.Cost < b.Cost
}

// ParetoFront maintains the set of non-dominated (accuracy, cost)
// candidates a level's search measured — the view of §2.2's full dynamic
// program, which the discrete accuracy table the paper ships approximates.
// The zero value is an empty front.
type ParetoFront struct {
	pts []ParetoPoint
}

// Add inserts p unless it is dominated by an existing point; points that p
// dominates are evicted. It reports whether p was kept.
func (f *ParetoFront) Add(p ParetoPoint) bool {
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
func (f *ParetoFront) Points() []ParetoPoint {
	out := append([]ParetoPoint(nil), f.pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Accuracy < out[j].Accuracy })
	return out
}

// Len returns the number of non-dominated points.
func (f *ParetoFront) Len() int { return len(f.pts) }

// Best returns the cheapest point achieving at least the given accuracy,
// and whether one exists — the "fastest algorithm better than each accuracy
// cutoff line" selection of Figure 2(a).
func (f *ParetoFront) Best(accuracy float64) (ParetoPoint, bool) {
	var best ParetoPoint
	found := false
	for _, p := range f.pts {
		if p.Accuracy >= accuracy && (!found || p.Cost < best.Cost) {
			best, found = p, true
		}
	}
	return best, found
}
