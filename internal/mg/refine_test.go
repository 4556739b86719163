package mg

import (
	"testing"

	"pbmg/internal/grid"
)

// refineTable builds a single-accuracy V table whose every cell runs the
// reference V-cycle at the given storage precision — the minimal harness
// that exercises the mixed-precision executor paths without a tuner.
func refineTable(maxLevel, iters int, prec Precision) *VTable {
	tbl := &VTable{Acc: []float64{1e9}}
	for lvl := 2; lvl <= maxLevel; lvl++ {
		tbl.Plans = append(tbl.Plans, []Plan{{Choice: ChoiceVCycle, Iters: iters, Precision: prec}})
	}
	return tbl
}

// TestRefinementConvergesHighAccuracy is the mixed-precision property test:
// f64 iterative refinement wrapped around an f32 V-cycle must reach the
// paper's hardest accuracy target (1e9 error reduction), which pure f32
// storage cannot — float32's unit roundoff (~6e-8) floors a pure-f32 solve
// around the 1e7 accuracy level, and the refinement's f64 defect/correction
// loop is exactly what buys back the remaining decades. Both properties are
// asserted on held-out random problems, so a refinement loop that silently
// rounds its correction (or a defect computed at the wrong precision) fails
// here before it can reach a golden.
func TestRefinementConvergesHighAccuracy(t *testing.T) {
	const (
		n      = 65
		target = 1e9
		iters  = 40 // refinement steps (one f32 V-cycle each): ~9 suffice, the rest is margin
	)
	maxLevel := grid.Level(n)
	for seed := int64(1); seed <= 3; seed++ {
		p, ws := testProblem(t, n, grid.Unbiased, seed)

		ex := Executor{WS: ws, V: refineTable(maxLevel, iters, PrecMixed)}
		x := p.NewState()
		ex.SolveV(x, p.B, 0)
		if acc := p.AccuracyOf(x); acc < target {
			t.Errorf("seed %d: mixed refinement achieved accuracy %.3g, want ≥ %.0e", seed, acc, target)
		}

		// The same work in pure f32 storage must stall at the f32 rounding
		// floor, well short of the target — otherwise the refinement loop
		// is not what is buying the accuracy.
		ex32 := Executor{WS: ws, V: refineTable(maxLevel, iters, PrecF32)}
		x32 := p.NewState()
		ex32.SolveV(x32, p.B, 0)
		if acc := p.AccuracyOf(x32); acc >= target {
			t.Errorf("seed %d: pure f32 reached accuracy %.3g ≥ %.0e, contradicting the f32 rounding floor", seed, acc, target)
		}
	}
}

// TestReducedPrecisionCellsRecordTheirWidth: a trace files each event at the
// storage width it ran at. An f32 cell runs everything at f32 but the direct
// base case, which solves in float64; a mixed cell adds one f64 defect
// residual per refinement iteration around its f32 steps.
func TestReducedPrecisionCellsRecordTheirWidth(t *testing.T) {
	const n, iters = 33, 3
	top := grid.Level(n)
	p, ws := testProblem(t, n, grid.Unbiased, 1)
	for _, prec := range []Precision{PrecF32, PrecMixed} {
		var tr OpTrace
		ex := Executor{WS: ws, V: refineTable(top, iters, prec), Rec: &tr}
		ex.SolveV(p.NewState(), p.B, 0)
		for k := EvRelax; k <= EvIterSolve; k++ {
			for l := 1; l <= tr.MaxLevel(); l++ {
				want := int64(0)
				switch {
				case k == EvDirect:
					want = tr.Count(k, l)
				case prec == PrecMixed && k == EvResidual && l == top:
					want = iters
				}
				if got := tr.CountAt(k, l, 64); got != want {
					t.Errorf("%s cell: %d %s events at level %d ran at f64, want %d", prec, got, k, l, want)
				}
			}
		}
		if tr.CountAt(EvDirect, 1, 64) != iters || tr.CountAt(EvRelax, top, 32) != 2*iters {
			t.Errorf("%s cell: %d f64 direct solves and %d f32 relaxations at the top, want %d and %d",
				prec, tr.CountAt(EvDirect, 1, 64), tr.CountAt(EvRelax, top, 32), iters, 2*iters)
		}
	}
}
