package problem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// zero returns a homogeneous Poisson problem (zero right-hand side and
// boundary) of side n.
func zero(n int) *Problem {
	return &Problem{N: n, H: 1.0 / float64(n-1), Op: stencil.Poisson(), B: grid.New(n), Boundary: grid.New(n)}
}

func TestRandomProblemShape(t *testing.T) {
	p := RandomOp(17, grid.Unbiased, rand.New(rand.NewSource(1)), stencil.Poisson())
	if p.N != 17 || math.Abs(p.H-1.0/16) > 1e-15 {
		t.Fatalf("N=%d H=%v, want 17, 1/16", p.N, p.H)
	}
	// Boundary grid interior must be zero.
	for i := 1; i < 16; i++ {
		for j := 1; j < 16; j++ {
			if p.Boundary.At(i, j) != 0 {
				t.Fatal("Boundary grid has nonzero interior")
			}
		}
	}
}

func TestRandomTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RandomOp(2) did not panic")
		}
	}()
	RandomOp(2, grid.Unbiased, rand.New(rand.NewSource(1)), stencil.Poisson())
}

func TestNewStateIndependent(t *testing.T) {
	p := RandomOp(9, grid.Biased, rand.New(rand.NewSource(2)), stencil.Poisson())
	s1 := p.NewState()
	s1.Set(4, 4, 99)
	s2 := p.NewState()
	if s2.At(4, 4) != 0 {
		t.Fatal("NewState shares storage across calls")
	}
	if s1.At(0, 3) != p.Boundary.At(0, 3) {
		t.Fatal("NewState did not copy boundary")
	}
}

func TestAccuracyOfUsesInitialGuess(t *testing.T) {
	p := zero(5)
	opt := grid.New(5)
	opt.Set(2, 2, 10)
	p.SetOptimal(opt)
	// Initial guess has error 10; an output with error 1 has accuracy 10.
	x := grid.New(5)
	x.Set(2, 2, 9)
	if got := p.AccuracyOf(x); math.Abs(got-10) > 1e-12 {
		t.Fatalf("AccuracyOf = %v, want 10", got)
	}
	if got := p.InitialError(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("InitialError = %v, want 10", got)
	}
}

// accuracyLevel is the paper's accuracy metric (§2.2) computed directly, the
// oracle AccuracyOf is held to: the ratio of the input error norm to the
// output error norm, both against xopt; +Inf for an exact output, and 1 when
// the input was exact too.
func accuracyLevel(xin, xout, xopt *grid.Grid) float64 {
	ein := grid.L2DiffInterior(xin, xopt)
	eout := grid.L2DiffInterior(xout, xopt)
	if eout == 0 {
		if ein == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return ein / eout
}

func TestAccuracyLevel(t *testing.T) {
	xopt := grid.New(3)
	xin := grid.New(3)
	xin.Set(1, 1, 8)
	xout := grid.New(3)
	xout.Set(1, 1, 2)
	if got := accuracyLevel(xin, xout, xopt); math.Abs(got-4) > 1e-12 {
		t.Fatalf("accuracyLevel = %v, want 4", got)
	}
	if got := accuracyLevel(xin, xopt, xopt); !math.IsInf(got, 1) {
		t.Fatalf("exact output should yield +Inf, got %v", got)
	}
	if got := accuracyLevel(xopt, xopt, xopt); got != 1 {
		t.Fatalf("degenerate case should yield 1, got %v", got)
	}
}

// Property: accuracyLevel is scale-invariant — scaling all three grids by
// the same nonzero factor leaves the ratio unchanged.
func TestAccuracyScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64, scaleBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 0.5 + float64(scaleBits%100)/10 // in [0.5, 10.4]
		xin, xout, xopt := grid.New(5), grid.New(5), grid.New(5)
		grid.FillRandom(xin, grid.Unbiased, rng)
		grid.FillRandom(xout, grid.Unbiased, rng)
		grid.FillRandom(xopt, grid.Unbiased, rng)
		a1 := accuracyLevel(xin, xout, xopt)
		for _, g := range []*grid.Grid{xin, xout, xopt} {
			d := g.Data()
			for i := range d {
				d[i] *= s
			}
		}
		a2 := accuracyLevel(xin, xout, xopt)
		return math.Abs(a1-a2) <= 1e-9*math.Max(a1, a2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAccuracyOfMatchesOracle: AccuracyOf, dividing by the initial error
// SetOptimal kept, is the oracle's ratio to the bit — for 2D and 3D problems
// of every distribution, random candidates, the initial guess itself, an
// exact candidate, and an exact initial guess.
func TestAccuracyOfMatchesOracle(t *testing.T) {
	check := func(name string, p *Problem, x *grid.Grid) {
		t.Helper()
		got, want := p.AccuracyOf(x), accuracyLevel(p.Boundary, x, p.Optimal())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: AccuracyOf = %v, oracle %v", name, got, want)
		}
		if e := grid.L2DiffInterior(p.Boundary, p.Optimal()); math.Float64bits(p.InitialError()) != math.Float64bits(e) {
			t.Errorf("%s: InitialError = %v, want %v", name, p.InitialError(), e)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, op := range []*stencil.Operator{stencil.Poisson(), stencil.Poisson3D()} {
		for _, dist := range []grid.Distribution{grid.Unbiased, grid.Biased, grid.PointSources} {
			for _, n := range []int{5, 9, 17} {
				p := RandomOp(n, dist, rng, op)
				opt := p.NewState()
				grid.FillRandom(opt, dist, rng)
				p.SetOptimal(opt)
				for i := range 4 {
					x := p.NewState()
					grid.FillRandom(x, dist, rng)
					check(fmt.Sprintf("dim %d %v N=%d candidate %d", opt.Dim(), dist, n, i), p, x)
				}
				check("the initial guess", p, p.NewState())
				check("an exact candidate", p, opt)
			}
		}
	}
	p := zero(5)
	p.SetOptimal(grid.New(5))
	check("an exact initial guess", p, grid.New(5))
}

func TestSetOptimalClones(t *testing.T) {
	p := zero(5)
	opt := grid.New(5)
	p.SetOptimal(opt)
	opt.Set(2, 2, 5)
	if p.Optimal().At(2, 2) != 0 {
		t.Fatal("SetOptimal did not clone")
	}
}

func TestSetOptimalSizeMismatchPanics(t *testing.T) {
	p := zero(5)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	p.SetOptimal(grid.New(7))
}

func TestAccuracyBeforeOptimalPanics(t *testing.T) {
	p := zero(5)
	defer func() {
		if recover() == nil {
			t.Fatal("AccuracyOf before SetOptimal did not panic")
		}
	}()
	p.AccuracyOf(grid.New(5))
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := RandomOp(9, grid.Unbiased, rand.New(rand.NewSource(7)), stencil.Poisson())
	b := RandomOp(9, grid.Unbiased, rand.New(rand.NewSource(7)), stencil.Poisson())
	for i := range a.B.Data() {
		if a.B.Data()[i] != b.B.Data()[i] {
			t.Fatal("problems differ for equal seeds")
		}
	}
}

// TestMeetsMatchesAccuracyOf: Meets answers what comparing AccuracyOf with
// each target in turn answers, bit for bit, for every suffix of a target
// ladder around the exact accuracy — the accuracy itself, its float
// neighbours, decades either side — on 2D and 3D problems: random
// candidates whose error differs by orders of magnitude from row to row
// (so the sum stops at every depth), the initial guess, an exact
// candidate (zero error), and an exact initial guess (zero initial error).
func TestMeetsMatchesAccuracyOf(t *testing.T) {
	check := func(name string, p *Problem, x *grid.Grid) {
		t.Helper()
		acc := p.AccuracyOf(x)
		ladder := []float64{0.5, 1, 10, 1e9}
		for _, v := range []float64{acc / 1e3, math.Nextafter(acc, 0), acc, math.Nextafter(acc, math.Inf(1)), acc * 1e3} {
			if !math.IsNaN(v) && !slices.Contains(ladder, v) {
				ladder = append(ladder, v)
			}
		}
		slices.Sort(ladder)
		for k := range ladder {
			targets := ladder[k:]
			want := 0
			for want < len(targets) && acc >= targets[want] {
				want++
			}
			if got := p.Meets(x, targets); got != want {
				t.Errorf("%s: accuracy %v meets %d of %v, Meets says %d", name, acc, want, targets, got)
			}
		}
	}
	rng := rand.New(rand.NewSource(33))
	for _, tc := range []struct {
		op *stencil.Operator
		ns []int
	}{{stencil.Poisson(), []int{5, 17, 33}}, {stencil.Poisson3D(), []int{5, 9}}} {
		for _, n := range tc.ns {
			p := RandomOp(n, grid.Unbiased, rng, tc.op)
			opt := p.NewState()
			grid.FillRandom(opt, grid.Unbiased, rng)
			p.SetOptimal(opt)
			for c := range 150 {
				x := opt.Clone()
				d := x.Data()
				row := n * (1 + rng.Intn(n-2)) // a row's stride; rows repeat their scale
				for i := range d {
					d[i] += math.Pow(10, -8*float64((i/row)%7)/6) * (rng.Float64() - 0.5)
				}
				check(fmt.Sprintf("dim %d N=%d candidate %d", opt.Dim(), n, c), p, x)
			}
			check("the initial guess", p, p.NewState())
			check("an exact candidate", p, opt)
		}
	}
	p := zero(5)
	p.SetOptimal(grid.New(5))
	check("an exact initial guess", p, grid.New(5))
	x := grid.New(5)
	x.Set(2, 3, 1)
	check("a candidate against an exact initial guess", p, x)
}

// InitialError returns ‖x₀ − x_opt‖₂ for the standard zero-interior initial
// guess. It panics if the reference solution has not been set.
func (p *Problem) InitialError() float64 {
	p.mustOpt()
	return p.initErr
}
