package core

import (
	"fmt"
	"math"

	"pbmg/internal/mg"
)

// This file implements the hand-written heuristic strategies the paper
// compares the autotuner against in Figures 7 and 8. Strategy "10^x/10^9"
// requires accuracy 10^x at every recursion level below the input size,
// which itself requires 10^9; Strategy "10^9" requires full accuracy at
// every level. All strategies call the direct method at small sizes
// whenever that is more efficient, exactly as described in §4.2.1.

// TuneHeuristic builds the strategy table for sub-level accuracy subAcc and
// top-level accuracy topAcc. It selects like the tuned V table does
// (tuneVLevel) but restricts choices to {direct, RECURSE into the
// sub-accuracy}: the heuristics are multigrid shapes, not algorithm
// portfolios. The returned table has Acc = {subAcc, topAcc}; solve with
// accuracy index 1 at the top level. When subAcc == topAcc the table
// collapses to Strategy "10^9" with a single accuracy entry.
func (t *Tuner) TuneHeuristic(subAcc, topAcc float64) (*mg.VTable, error) {
	if subAcc > topAcc {
		return nil, fmt.Errorf("core: sub-accuracy %g exceeds top accuracy %g", subAcc, topAcc)
	}
	accs := []float64{subAcc, topAcc}
	if subAcc == topAcc {
		accs = []float64{topAcc}
	}
	saved := t.cfg.Accuracies
	t.cfg.Accuracies = accs
	defer func() { t.cfg.Accuracies = saved }()

	vt := &mg.VTable{Acc: accs}
	for level := 2; level <= t.cfg.MaxLevel; level++ {
		var cands []candidate
		if level <= t.cfg.DirectMaxLevel {
			cands = append(cands, candidate{plan: mg.Plan{Choice: mg.ChoiceDirect}})
		}
		// The heuristic always recurses into the sub-accuracy version.
		cands = append(cands, t.recurseCandidate(&mg.Executor{WS: t.ws, V: vt}, 0))
		row, _ := t.tuneVLevel(level, cands)
		vt.Plans = append(vt.Plans, row)
	}
	if err := vt.Validate(); err != nil {
		return nil, fmt.Errorf("core: heuristic table invalid: %w", err)
	}
	return vt, nil
}

// HeuristicName formats the paper's strategy labels: "10^x/10^9" or "10^9".
func HeuristicName(subAcc, topAcc float64) string {
	if subAcc == topAcc {
		return fmt.Sprintf("10^%.0f", math.Log10(topAcc))
	}
	return fmt.Sprintf("10^%.0f/10^%.0f", math.Log10(subAcc), math.Log10(topAcc))
}
