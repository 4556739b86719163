package mg

import (
	"math/rand"
	"strings"
	"testing"

	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/problem"
	"pbmg/internal/stencil"
)

// testProblem builds a random problem of side n with its reference solution
// computed by the direct solver.
func testProblem(t *testing.T, n int, dist grid.Distribution, seed int64) (*problem.Problem, *Workspace) {
	t.Helper()
	p := problem.RandomOp(n, dist, rand.New(rand.NewSource(seed)), stencil.Poisson())
	ws := NewWorkspace(nil, stencil.Poisson())
	opt := p.NewState()
	ws.SolveDirect(opt, p.B, nil)
	p.SetOptimal(opt)
	return p, ws
}

func TestOpTraceCounts(t *testing.T) {
	var tr OpTrace
	tr.Record(EvRelax, 3, 2)
	tr.Record(EvRelax, 3, 1)
	tr.Record(EvDirect, 1, 1)
	if got := tr.Count(EvRelax, 3); got != 3 {
		t.Fatalf("Count(relax,3) = %d, want 3", got)
	}
	if got := tr.Count(EvRelax, 2); got != 0 {
		t.Fatalf("Count(relax,2) = %d, want 0", got)
	}
	if tr.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d, want 3", tr.MaxLevel())
	}
	if tr.Total(EvRelax) != 3 || tr.Total(EvDirect) != 1 {
		t.Fatal("Total mismatch")
	}
	var other OpTrace
	other.Record(EvRelax, 3, 5)
	tr.Merge(&other)
	if tr.Count(EvRelax, 3) != 8 {
		t.Fatal("Merge did not add counts")
	}
	tr.Reset()
	if tr.Total(EvRelax) != 0 || tr.MaxLevel() != 0 {
		t.Fatal("Reset did not clear")
	}

	// AddScaled adds n times every count.
	tr.Record(EvRelax, 3, 2)
	tr.Record(EvInterp, 4, 1)
	var scaled OpTrace
	scaled.AddScaled(&tr, 3)
	if scaled.Count(EvRelax, 3) != 6 || scaled.Count(EvInterp, 4) != 3 || scaled.MaxLevel() != 4 {
		t.Fatalf("AddScaled by 3: relax %d, interp %d, MaxLevel %d, want 6, 3, 4",
			scaled.Count(EvRelax, 3), scaled.Count(EvInterp, 4), scaled.MaxLevel())
	}
}

func TestShapeLogMergesConsecutiveRelax(t *testing.T) {
	var s ShapeLog
	s.Record(EvRelax, 4, 1)
	s.Record(EvRelax, 4, 2)
	s.Record(EvRelax, 3, 1)
	s.Record(EvRestrict, 3, 1)
	if len(s.Events) != 3 {
		t.Fatalf("events = %d, want 3 (merged)", len(s.Events))
	}
	if s.Events[0].Count != 3 {
		t.Fatalf("merged count = %d, want 3", s.Events[0].Count)
	}
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		EvRelax: "relax", EvResidual: "residual", EvRestrict: "restrict",
		EvInterp: "interp", EvDirect: "direct", EvIterSolve: "iter-solve",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestRefVCycleConverges(t *testing.T) {
	p, ws := testProblem(t, 33, grid.Unbiased, 1)
	x := p.NewState()
	iters, acc := ws.SolveRefV(x, p.B, 1e9, 100, func() float64 { return p.AccuracyOf(x) }, nil)
	if acc < 1e9 {
		t.Fatalf("V-cycles reached accuracy %v after %d iters, want ≥ 1e9", acc, iters)
	}
	if iters > 30 {
		t.Fatalf("V-cycles needed %d iterations for 1e9; convergence is too slow", iters)
	}
}

func TestRefFullMGFasterThanV(t *testing.T) {
	p, ws := testProblem(t, 65, grid.Biased, 2)
	xv := p.NewState()
	iv, _ := ws.SolveRefV(xv, p.B, 1e5, 100, func() float64 { return p.AccuracyOf(xv) }, nil)
	xf := p.NewState()
	ifmg, _ := ws.SolveRefFullMG(xf, p.B, 1e5, 100, func() float64 { return p.AccuracyOf(xf) }, nil)
	if ifmg > iv {
		t.Fatalf("full MG took %d iterations vs V's %d; estimation phase should help", ifmg, iv)
	}
}

func TestIterateUntilStopsAtMax(t *testing.T) {
	n := 0
	iters, acc := IterateUntil(10, 5, func() { n++ }, func() float64 { return 1 })
	if iters != 5 || n != 5 || acc != 1 {
		t.Fatalf("IterateUntil = (%d, %v), want (5, 1)", iters, acc)
	}
	iters, acc = IterateUntil(10, 5, func() { n++ }, func() float64 { return 100 })
	if iters != 1 || acc != 100 {
		t.Fatalf("early stop = (%d, %v), want (1, 100)", iters, acc)
	}
}

// uniformVTable builds a table where every cell recurses once into the same
// accuracy index — structurally identical to the reference V-cycle.
func uniformVTable(maxLevel, numAcc int) *VTable {
	accs := make([]float64, numAcc)
	for i := range accs {
		accs[i] = float64(10 * (i + 1))
	}
	t := &VTable{Acc: accs}
	for l := 2; l <= maxLevel; l++ {
		row := make([]Plan, numAcc)
		for i := range row {
			row[i] = Plan{Choice: ChoiceRecurse, Iters: 1, Sub: i}
		}
		t.Plans = append(t.Plans, row)
	}
	return t
}

func TestTunedVMatchesReferenceVWhenStructurallyEqual(t *testing.T) {
	p, ws := testProblem(t, 33, grid.Unbiased, 4)
	vt := uniformVTable(5, 2)
	if err := vt.Validate(); err != nil {
		t.Fatal(err)
	}
	var trTuned, trRef OpTrace
	ex := &Executor{WS: ws, V: vt, Rec: &trTuned}
	xt := p.NewState()
	ex.SolveV(xt, p.B, 0)
	xr := p.NewState()
	ws.RefVCycle(xr, p.B, &trRef)
	for i := range xt.Data() {
		if xt.Data()[i] != xr.Data()[i] {
			t.Fatal("tuned V with V-shaped table differs from reference V-cycle")
		}
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		for l := 0; l <= 6; l++ {
			if trTuned.Count(k, l) != trRef.Count(k, l) {
				t.Fatalf("trace mismatch at kind %v level %d: %d vs %d",
					k, l, trTuned.Count(k, l), trRef.Count(k, l))
			}
		}
	}
}

func TestTunedVDirectChoice(t *testing.T) {
	p, ws := testProblem(t, 17, grid.Biased, 5)
	vt := uniformVTable(4, 1)
	vt.Plans[2][0] = Plan{Choice: ChoiceDirect} // level 4 solves directly
	ex := &Executor{WS: ws, V: vt}
	x := p.NewState()
	ex.SolveV(x, p.B, 0)
	if acc := p.AccuracyOf(x); acc < 1e12 {
		t.Fatalf("direct choice should be near-exact, accuracy %v", acc)
	}
}

func TestTunedVSORChoice(t *testing.T) {
	p, ws := testProblem(t, 17, grid.Unbiased, 6)
	vt := uniformVTable(4, 1)
	vt.Plans[2][0] = Plan{Choice: ChoiceSOR, Iters: 7}
	ex := &Executor{WS: ws, V: vt}
	x := p.NewState()
	ex.SolveV(x, p.B, 0)
	// Must equal running seven ω_opt sweeps by hand.
	want := p.NewState()
	h := 1.0 / 16
	for i := 0; i < 7; i++ {
		stencil.OpSORSweepRB(stencil.Poisson(), nil, want, p.B, h, stencil.OmegaOpt(17))
	}
	for i := range x.Data() {
		if x.Data()[i] != want.Data()[i] {
			t.Fatal("SOR choice does not match manual sweeps")
		}
	}
}

func TestTunedVMultipleIterationsImprove(t *testing.T) {
	p, ws := testProblem(t, 33, grid.Unbiased, 7)
	one := uniformVTable(5, 1)
	three := uniformVTable(5, 1)
	three.Plans[3][0].Iters = 3 // top level runs 3 recursions
	x1 := p.NewState()
	(&Executor{WS: ws, V: one}).SolveV(x1, p.B, 0)
	x3 := p.NewState()
	(&Executor{WS: ws, V: three}).SolveV(x3, p.B, 0)
	if p.AccuracyOf(x3) <= p.AccuracyOf(x1) {
		t.Fatal("more recursion iterations should improve accuracy")
	}
}

func TestTunedFullMatchesReferenceFMGWhenStructurallyEqual(t *testing.T) {
	p, ws := testProblem(t, 33, grid.Biased, 8)
	numAcc := 1
	vt := uniformVTable(5, numAcc)
	ft := &FTable{Acc: vt.Acc}
	for l := 2; l <= 5; l++ {
		ft.Plans = append(ft.Plans, []FullPlan{{
			Choice: FullEstimate, EstAcc: 0,
			Solve: ChoiceRecurse, SolveSub: 0, Iters: 1,
		}})
	}
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	ex := &Executor{WS: ws, V: vt, F: ft}
	xt := p.NewState()
	ex.SolveFull(xt, p.B, 0)
	xr := p.NewState()
	ws.RefFullMG(xr, p.B, nil)
	for i := range xt.Data() {
		if xt.Data()[i] != xr.Data()[i] {
			t.Fatal("tuned full MG with FMG-shaped table differs from reference FMG")
		}
	}
}

func TestEstimateImprovesStartingPoint(t *testing.T) {
	p, ws := testProblem(t, 33, grid.Unbiased, 9)
	vt := uniformVTable(5, 1)
	ft := &FTable{Acc: vt.Acc}
	for l := 2; l <= 5; l++ {
		ft.Plans = append(ft.Plans, []FullPlan{{
			Choice: FullEstimate, EstAcc: 0, Solve: ChoiceRecurse, SolveSub: 0, Iters: 1,
		}})
	}
	ex := &Executor{WS: ws, V: vt, F: ft}
	x := p.NewState()
	before := p.AccuracyOf(x)
	ex.Estimate(x, p.B, 0)
	if after := p.AccuracyOf(x); after <= before {
		t.Fatalf("estimate did not improve accuracy: %v -> %v", before, after)
	}
}

func TestVTableValidate(t *testing.T) {
	good := uniformVTable(4, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	bad := uniformVTable(4, 3)
	bad.Acc = []float64{10, 5, 100}
	if bad.Validate() == nil {
		t.Fatal("non-ascending accuracies accepted")
	}
	bad2 := uniformVTable(4, 3)
	bad2.Plans[1][2] = Plan{Choice: ChoiceRecurse, Iters: 0, Sub: 0}
	if bad2.Validate() == nil {
		t.Fatal("zero-iteration recurse accepted")
	}
	bad3 := uniformVTable(4, 3)
	bad3.Plans[0][0] = Plan{Choice: ChoiceRecurse, Iters: 1, Sub: 9}
	if bad3.Validate() == nil {
		t.Fatal("out-of-range sub accepted")
	}
	bad4 := uniformVTable(4, 3)
	bad4.Plans[0] = bad4.Plans[0][:2]
	if bad4.Validate() == nil {
		t.Fatal("ragged plan rows accepted")
	}
}

func TestFTableValidate(t *testing.T) {
	ft := &FTable{Acc: []float64{10, 100}}
	ft.Plans = append(ft.Plans, []FullPlan{
		{Choice: FullEstimate, EstAcc: 0, Solve: ChoiceSOR, Iters: 2},
		{Choice: FullDirect},
	})
	if err := ft.Validate(); err != nil {
		t.Fatalf("valid FTable rejected: %v", err)
	}
	bad := &FTable{Acc: []float64{10, 100}}
	bad.Plans = append(bad.Plans, []FullPlan{
		{Choice: FullEstimate, EstAcc: 5, Solve: ChoiceSOR, Iters: 1},
		{Choice: FullDirect},
	})
	if bad.Validate() == nil {
		t.Fatal("out-of-range estimate accuracy accepted")
	}
	bad2 := &FTable{Acc: []float64{10, 100}}
	bad2.Plans = append(bad2.Plans, []FullPlan{
		{Choice: FullEstimate, EstAcc: 0, Solve: ChoiceDirect, Iters: 1},
		{Choice: FullDirect},
	})
	if bad2.Validate() == nil {
		t.Fatal("direct solve-phase choice accepted")
	}
}

func TestPlanLookupBaseCase(t *testing.T) {
	vt := uniformVTable(4, 2)
	if vt.Plan(1, 0).Choice != ChoiceDirect {
		t.Fatal("level 1 plan should be direct")
	}
	if vt.MaxLevel() != 4 {
		t.Fatalf("MaxLevel = %d, want 4", vt.MaxLevel())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Plan beyond MaxLevel did not panic")
		}
	}()
	vt.Plan(9, 0)
}

func TestRenderShapeVCycle(t *testing.T) {
	p, ws := testProblem(t, 17, grid.Unbiased, 10)
	var log ShapeLog
	x := p.NewState()
	ws.RefVCycle(x, p.B, &log)
	out := RenderShape(&log)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // levels 4..1
		t.Fatalf("rendered %d rows, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "D") {
		t.Fatalf("V-cycle render missing direct solve:\n%s", out)
	}
	if !strings.Contains(out, `\`) || !strings.Contains(out, "/") {
		t.Fatalf("V-cycle render missing transitions:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], " 4 |") || !strings.HasPrefix(lines[3], " 1 |") {
		t.Fatalf("row labels wrong:\n%s", out)
	}
}

func TestRenderShapeEmpty(t *testing.T) {
	var log ShapeLog
	if got := RenderShape(&log); !strings.Contains(got, "empty") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestRenderShapeIterSolve(t *testing.T) {
	var log ShapeLog
	log.Record(EvIterSolve, 3, 12)
	out := RenderShape(&log)
	if !strings.Contains(out, "~12~") {
		t.Fatalf("iterative solve glyph missing:\n%s", out)
	}
}

func TestDescribeV(t *testing.T) {
	vt := uniformVTable(4, 2)
	vt.Plans[2][1] = Plan{Choice: ChoiceRecurse, Iters: 2, Sub: 0}
	vt.Plans[1][0] = Plan{Choice: ChoiceSOR, Iters: 9}
	out := DescribeV(vt, 4, 1)
	if !strings.Contains(out, "MULTIGRID-V2 @ level 4 (N=17): RECURSE1 ×2") {
		t.Fatalf("missing top line:\n%s", out)
	}
	if !strings.Contains(out, "MULTIGRID-V1 @ level 3 (N=9): SOR ×9") {
		t.Fatalf("missing SOR line:\n%s", out)
	}
}

func TestDescribeFull(t *testing.T) {
	vt := uniformVTable(3, 1)
	ft := &FTable{Acc: vt.Acc}
	ft.Plans = append(ft.Plans,
		[]FullPlan{{Choice: FullDirect}},
		[]FullPlan{{Choice: FullEstimate, EstAcc: 0, Solve: ChoiceSOR, Iters: 4}},
	)
	out := DescribeFull(ft, vt, 3, 0)
	if !strings.Contains(out, "ESTIMATE1, then SOR ×4") {
		t.Fatalf("missing estimate line:\n%s", out)
	}
	if !strings.Contains(out, "FULL-MG1 @ level 2 (N=5): direct") {
		t.Fatalf("missing recursive estimate description:\n%s", out)
	}
}

func TestWorkspaceArenaCheckout(t *testing.T) {
	ws := NewWorkspace(nil, stencil.Poisson())
	// Overlapping checkouts (as in concurrent solves) must yield distinct
	// scratch sets; sizes must match the level geometry.
	b1 := ws.checkout(17)
	b2 := ws.checkout(17)
	if b1 == b2 {
		t.Fatal("overlapping checkouts shared a scratch set")
	}
	if b1.cb.N() != 9 {
		t.Fatalf("coarse buffer size = %d, want 9", b1.cb.N())
	}
	if b1.r.N() != 17 || b1.scratch.N() != 17 || b1.cx.N() != 9 {
		t.Fatal("scratch set has wrong geometry")
	}
	ws.release(b1)
	ws.release(b2)
}

func TestWorkspaceDirectCaching(t *testing.T) {
	ws := NewWorkspace(nil, stencil.Poisson())
	p := problem.RandomOp(9, grid.Unbiased, rand.New(rand.NewSource(11)), stencil.Poisson())
	x1, x2, x3 := p.NewState(), p.NewState(), p.NewState()
	direct.NewInteriorSolver(stencil.Poisson(), 9).Solve(x1, p.B, p.H) // a fresh factorization
	ws.SolveDirect(x2, p.B, nil)                                       // factors into the cache
	ws.SolveDirect(x3, p.B, nil)                                       // cached path
	for i := range x1.Data() {
		if x1.Data()[i] != x2.Data()[i] || x1.Data()[i] != x3.Data()[i] {
			t.Fatal("cached and fresh direct solves differ")
		}
	}
	if got := ws.FactorCache.Factorizations(); got != 1 {
		t.Fatalf("two direct solves at one size ran %d factorizations, want 1", got)
	}
}

func TestChoiceStrings(t *testing.T) {
	if ChoiceDirect.String() != "direct" || ChoiceSOR.String() != "sor" ||
		ChoiceRecurse.String() != "recurse" {
		t.Fatal("Choice.String mismatch")
	}
	if FullDirect.String() != "direct" || FullEstimate.String() != "estimate" {
		t.Fatal("FullChoice.String mismatch")
	}
}

func TestVCycleChoiceExecutes(t *testing.T) {
	p, ws := testProblem(t, 17, grid.Unbiased, 42)
	vt := uniformVTable(4, 1)
	vt.Plans[2][0] = Plan{Choice: ChoiceVCycle, Iters: 3}
	ex := &Executor{WS: ws, V: vt}
	x := p.NewState()
	ex.SolveV(x, p.B, 0)
	// Must equal three reference V cycles exactly.
	want := p.NewState()
	for i := 0; i < 3; i++ {
		ws.RefVCycle(want, p.B, nil)
	}
	for i := range x.Data() {
		if x.Data()[i] != want.Data()[i] {
			t.Fatal("ChoiceVCycle does not match reference V cycles")
		}
	}
}

func TestVCycleChoiceValidates(t *testing.T) {
	vt := uniformVTable(3, 1)
	vt.Plans[0][0] = Plan{Choice: ChoiceVCycle, Iters: 0}
	if vt.Validate() == nil {
		t.Fatal("zero-iteration vcycle accepted")
	}
	if ChoiceVCycle.String() != "vcycle" {
		t.Fatal("ChoiceVCycle.String mismatch")
	}
}

// SolveRefFullMG runs one full-multigrid pass and then iterates V-cycles
// until the accuracy target is met — the paper's second reference algorithm.
// The returned iteration count includes the initial FMG pass.
func (ws *Workspace) SolveRefFullMG(x, b *grid.Grid, target float64, maxIters int, accuracy func() float64, rec Recorder) (int, float64) {
	ws.RefFullMG(x, b, rec)
	if a := accuracy(); a >= target {
		return 1, a
	}
	iters, a := IterateUntil(target, maxIters-1, func() { ws.RefVCycle(x, b, rec) }, accuracy)
	return iters + 1, a
}
