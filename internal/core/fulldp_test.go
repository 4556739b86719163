package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/stencil"
)

func TestTuneVParetoFrontsAreNonDominated(t *testing.T) {
	tn := newModelTuner(t, 5, grid.Unbiased)
	fronts, err := tn.TuneVPareto(ParetoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for level := 1; level <= 5; level++ {
		f := fronts[level]
		if f == nil || f.Len() == 0 {
			t.Fatalf("level %d: missing front", level)
		}
		pts := f.Points()
		for i := range pts {
			for j := range pts {
				if i == j {
					continue
				}
				if pts[i].Accuracy >= pts[j].Accuracy && pts[i].Cost <= pts[j].Cost &&
					(pts[i].Accuracy > pts[j].Accuracy || pts[i].Cost < pts[j].Cost) {
					t.Fatalf("level %d: dominated point on front", level)
				}
			}
		}
	}
}

func TestParetoFrontRespectsMaxFront(t *testing.T) {
	tn := newModelTuner(t, 4, grid.Unbiased)
	fronts, err := tn.TuneVPareto(ParetoConfig{MaxFront: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Anchored thinning may keep up to one extra point per discrete target
	// beyond the spread budget.
	limit := 4 + len(DefaultAccuracies()) + 1
	for level, f := range fronts {
		if f.Len() > limit {
			t.Fatalf("level %d: front size %d exceeds %d", level, f.Len(), limit)
		}
	}
}

func TestParetoPlanMeetsAccuracyOnTestData(t *testing.T) {
	tn := newModelTuner(t, 5, grid.Unbiased)
	fronts, err := tn.TuneVPareto(ParetoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pt, ok := fronts[tn.cfg.MaxLevel].Best(1e5)
	if !ok {
		t.Fatal("no full-DP algorithm reaches accuracy 1e5 at the finest level")
	}
	if pt.Accuracy < 1e5 {
		t.Fatalf("selected plan's trained accuracy %.3g below target", pt.Accuracy)
	}
	p := testInstance(t, 5, grid.Unbiased, 4242)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	x := p.NewState()
	pt.Plan.Execute(ws, x, p.B, nil)
	if got := p.AccuracyOf(x); got < 1e4 {
		t.Fatalf("full-DP plan achieved %.3g on test data, want ≈1e5", got)
	}
}

func TestParetoAtLeastAsGoodAsDiscrete(t *testing.T) {
	// The discrete table is an approximation of the full DP (§2.3): for any
	// target accuracy the full-DP front must offer an algorithm no more
	// expensive than the discrete tuner's pick, measured by the same model.
	tn := newModelTuner(t, 5, grid.Unbiased)
	vt, err := tn.TuneV()
	if err != nil {
		t.Fatal(err)
	}
	fronts, err := tn.TuneVPareto(ParetoConfig{MaxFront: 16})
	if err != nil {
		t.Fatal(err)
	}
	model := tn.cfg.Coster
	probs := tn.training(5)
	ws := tn.ws
	for i, target := range vt.Acc {
		var discTr mg.OpTrace
		ex := &mg.Executor{WS: ws, V: vt, Rec: &discTr}
		x := probs[0].NewState()
		ex.SolveV(x, probs[0].B, i)
		discCost := model.Cost(&discTr, 0)

		pt, ok := fronts[5].Best(target)
		if !ok {
			t.Fatalf("no full-DP plan for accuracy %g", target)
		}
		if pt.Cost > discCost*1.05 {
			t.Errorf("accuracy %g: full-DP cost %.3g exceeds discrete cost %.3g", target, pt.Cost, discCost)
		}
	}
}

func TestPlanNodeString(t *testing.T) {
	n := &PlanNode{Choice: mg.ChoiceRecurse, Iters: 3,
		Sub: &PlanNode{Choice: mg.ChoiceSOR, Iters: 7}}
	if got := n.String(); got != "rec×3(sor×7)" {
		t.Fatalf("String = %q", got)
	}
	if (&PlanNode{Choice: mg.ChoiceDirect}).String() != "direct" {
		t.Fatal("direct String mismatch")
	}
}

func TestPlanNodeExecuteDirectAndSOR(t *testing.T) {
	p := testInstance(t, 4, grid.Biased, 9)
	ws := mg.NewWorkspace(nil, stencil.Poisson())
	x := p.NewState()
	(&PlanNode{Choice: mg.ChoiceDirect}).Execute(ws, x, p.B, nil)
	if acc := p.AccuracyOf(x); acc < 1e10 {
		t.Fatalf("direct node accuracy %.3g", acc)
	}
	y := p.NewState()
	(&PlanNode{Choice: mg.ChoiceSOR, Iters: 50}).Execute(ws, y, p.B, nil)
	if acc := p.AccuracyOf(y); acc < 10 {
		t.Fatalf("SOR node accuracy %.3g after 50 sweeps", acc)
	}
}

func TestNodeFrontThinKeepsExtremes(t *testing.T) {
	f := &ParetoFront[*PlanNode]{}
	for i := 1; i <= 30; i++ {
		f.Add(ParetoPoint[*PlanNode]{Accuracy: math.Pow(10, float64(i)), Cost: float64(i), Plan: &PlanNode{Choice: mg.ChoiceDirect}})
	}
	f.thin(5, nil)
	if f.Len() > 6 {
		t.Fatalf("thin left %d points", f.Len())
	}
	pts := f.Points()
	if pts[0].Accuracy != 1e1 || pts[len(pts)-1].Accuracy != 1e30 {
		t.Fatalf("thin dropped the extremes: %v .. %v", pts[0].Accuracy, pts[len(pts)-1].Accuracy)
	}
}

func TestNodeFrontBest(t *testing.T) {
	f := &ParetoFront[*PlanNode]{}
	f.Add(ParetoPoint[*PlanNode]{Accuracy: 10, Cost: 1})
	f.Add(ParetoPoint[*PlanNode]{Accuracy: 1000, Cost: 5})
	if _, ok := f.Best(1e6); ok {
		t.Fatal("Best above front accepted")
	}
	pt, ok := f.Best(100)
	if !ok || pt.Cost != 5 {
		t.Fatalf("Best(100) = %+v, %v", pt, ok)
	}
}

// Property: ParetoFront[*PlanNode].Add maintains the non-domination invariant under any
// insertion sequence.
func TestNodeFrontInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var front ParetoFront[*PlanNode]
		for i := 0; i < 60; i++ {
			front.Add(ParetoPoint[*PlanNode]{
				Accuracy: math.Exp(rng.Float64() * 15),
				Cost:     math.Exp(rng.Float64() * 8),
			})
		}
		pts := front.Points()
		for i := 1; i < len(pts); i++ {
			// Sorted ascending by accuracy: cost must strictly ascend too,
			// otherwise a point would dominate its neighbour.
			if pts[i].Cost <= pts[i-1].Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoDescribesRichPlans(t *testing.T) {
	tn := newModelTuner(t, 5, grid.Unbiased)
	fronts, err := tn.TuneVPareto(ParetoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// At the top level the front should contain at least one genuinely
	// recursive plan (multigrid), not just direct/SOR.
	found := false
	for _, pt := range fronts[5].Points() {
		if strings.HasPrefix(pt.Plan.String(), "rec×") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no recursive plan on the top-level front")
	}
}
