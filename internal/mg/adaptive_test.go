package mg

import (
	"math"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

func adaptiveFixture(t *testing.T) (*AdaptiveSolver, *Workspace) {
	t.Helper()
	_, ws := testProblem(t, 33, grid.Unbiased, 21)
	vt := uniformVTable(5, 3)
	ex := &Executor{WS: ws, V: vt}
	return &AdaptiveSolver{Ex: ex}, ws
}

func TestAdaptiveReachesResidualTarget(t *testing.T) {
	p, ws := testProblem(t, 33, grid.Unbiased, 22)
	vt := uniformVTable(5, 3)
	a := &AdaptiveSolver{Ex: &Executor{WS: ws, V: vt}}
	x := p.NewState()
	res := a.Solve(x, p.B, 1e8, 0)
	if res.Reduction < 1e8 {
		t.Fatalf("adaptive reduction %.3g, want ≥ 1e8 (iters %d)", res.Reduction, res.Iters)
	}
	// The residual target is a proxy; the actual error must have improved
	// dramatically too.
	if acc := p.AccuracyOf(x); acc < 1e6 {
		t.Fatalf("accuracy %.3g despite residual reduction %.3g", acc, res.Reduction)
	}
}

func TestAdaptiveStopsEarlyOnEasyTarget(t *testing.T) {
	p, ws := testProblem(t, 17, grid.Biased, 23)
	vt := uniformVTable(4, 2)
	a := &AdaptiveSolver{Ex: &Executor{WS: ws, V: vt}}
	x := p.NewState()
	res := a.Solve(x, p.B, 5, 0)
	if res.Iters > 2 {
		t.Fatalf("easy target took %d iterations", res.Iters)
	}
}

func TestAdaptiveEscalatesOnForcedStagnation(t *testing.T) {
	p, ws := testProblem(t, 33, grid.Unbiased, 24)
	vt := uniformVTable(5, 3)
	a := &AdaptiveSolver{
		Ex:         &Executor{WS: ws, V: vt},
		Stagnation: math.Inf(1), // every step counts as stagnating
		MaxIters:   6,
	}
	x := p.NewState()
	res := a.Solve(x, p.B, 1e30, 0) // unreachable target: run to MaxIters
	if res.Escalations == 0 || res.FinalSub != 2 {
		t.Fatalf("expected escalation to the highest sub-accuracy, got %+v", res)
	}
	if res.Iters != 6 {
		t.Fatalf("iters = %d, want MaxIters", res.Iters)
	}
}

func TestAdaptiveZeroResidualShortCircuit(t *testing.T) {
	a, ws := adaptiveFixture(t)
	_ = ws
	// x already satisfies T·x = b for b = T·x: the residual against a zero
	// right-hand side is −T·x, exactly.
	x := grid.New(33)
	for i := range x.Data() {
		x.Data()[i] = float64(i % 7)
	}
	b := grid.New(33)
	stencil.OpResidual(stencil.Poisson(), nil, b, x, grid.New(33), 1.0/32)
	b.Scale(-1)
	res := a.Solve(x, b, 10, 0)
	if res.Iters != 0 || !math.IsInf(res.Reduction, 1) {
		t.Fatalf("zero-residual start should return immediately, got %+v", res)
	}
}

func TestAdaptivePanicsOnBadArgs(t *testing.T) {
	a, _ := adaptiveFixture(t)
	x, b := grid.New(33), grid.New(33)
	for _, fn := range []func(){
		func() { a.Solve(x, b, 0.5, 0) },
		func() { a.Solve(x, b, 10, 99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAdaptiveDefaults(t *testing.T) {
	p, ws := testProblem(t, 17, grid.Unbiased, 25)
	vt := uniformVTable(4, 1)
	a := &AdaptiveSolver{Ex: &Executor{WS: ws, V: vt}} // zero Stagnation/MaxIters
	x := p.NewState()
	res := a.Solve(x, p.B, 1e4, 0)
	if res.Reduction < 1e4 {
		t.Fatalf("defaults failed to converge: %+v", res)
	}
}

// TestAdaptiveReductionIsTheResidualNormRatio pins what both exits of the
// adaptive loop report: r₀ over OpResidualNorm of the iterate they return,
// bit for bit — the probe of each step is that kernel, not a fused copy of it.
func TestAdaptiveReductionIsTheResidualNormRatio(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reduction float64
		maxIters  int
	}{
		{"target met", 1e6, 0},
		{"MaxIters reached", 1e30, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, ws := testProblem(t, 33, grid.Unbiased, 26)
			a := &AdaptiveSolver{Ex: &Executor{WS: ws, V: uniformVTable(5, 3)}, MaxIters: tc.maxIters}
			x := p.NewState()
			h := 1.0 / 32
			r0 := stencil.OpResidualNorm(stencil.Poisson(), nil, x, p.B, h)
			res := a.Solve(x, p.B, tc.reduction, 0)
			if tc.maxIters > 0 && res.Iters != tc.maxIters {
				t.Fatalf("iters = %d, want MaxIters = %d", res.Iters, tc.maxIters)
			}
			if tc.maxIters == 0 && res.Reduction < tc.reduction {
				t.Fatalf("reduction %.3g short of the target %.3g", res.Reduction, tc.reduction)
			}
			want := r0 / stencil.OpResidualNorm(stencil.Poisson(), nil, x, p.B, h)
			if math.Float64bits(res.Reduction) != math.Float64bits(want) {
				t.Fatalf("reported reduction %v, r₀/‖b − T·x‖ = %v", res.Reduction, want)
			}
		})
	}
}
