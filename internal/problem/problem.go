// Package problem defines Poisson problem instances — right-hand side,
// Dirichlet boundary data, and (once computed) the reference "optimal"
// solution — and the paper's accuracy yardstick measured against it.
//
// Following §4 of the paper, random instances draw the right-hand side b and
// the boundary of x from one of the training distributions (unbiased
// uniform, biased uniform, point sources). The initial state is the given
// boundary with a zero interior guess.
package problem

import (
	"fmt"
	"math"
	"math/rand"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// Problem is one instance of the discrete operator problem T·x = b on an
// N×N grid over the unit square — or an N×N×N grid over the unit cube for
// 3D operator families — with mesh spacing H = 1/(N−1) and Dirichlet
// boundary values. Op is the operator family.
type Problem struct {
	N        int
	H        float64
	Dist     grid.Distribution
	Op       *stencil.Operator // operator family
	B        *grid.Grid        // right-hand side
	Boundary *grid.Grid        // boundary values; interior entries are zero
	opt      *grid.Grid        // reference solution, set via SetOptimal
	initErr  float64           // ‖Boundary − opt‖₂, set with opt
}

// RandomOp draws a problem of side n for the given operator family from the
// given distribution. The right-hand side is fully random; only the border
// of the state is random (interior boundary grid entries stay zero). The
// grids take their dimension from the operator: a 3D operator yields
// n×n×n right-hand-side and boundary grids. Variable-coefficient operators
// must be discretized at size n.
func RandomOp(n int, dist grid.Distribution, rng *rand.Rand, op *stencil.Operator) *Problem {
	if n < 3 {
		panic(fmt.Sprintf("problem: side %d too small", n))
	}
	if op.Coef() != nil && op.Coef().N() != n {
		panic(fmt.Sprintf("problem: operator discretized at N=%d, problem side %d", op.Coef().N(), n))
	}
	dim := op.Dim()
	p := &Problem{
		N:        n,
		H:        1.0 / float64(n-1),
		Dist:     dist,
		Op:       op,
		B:        grid.NewDim(dim, n),
		Boundary: grid.NewDim(dim, n),
	}
	grid.FillRandom(p.B, dist, rng)
	grid.FillBoundaryRandom(p.Boundary, dist, rng)
	return p
}

// Operator returns the problem's operator family.
func (p *Problem) Operator() *stencil.Operator { return p.Op }

// NewState returns a fresh solver state: the problem's boundary values with
// a zero interior guess.
func (p *Problem) NewState() *grid.Grid {
	return p.Boundary.Clone()
}

// SetOptimal records the reference solution used by the accuracy metric,
// and the initial guess's error against it, which every AccuracyOf divides
// by: Boundary must not change afterwards. The grid is cloned, so later
// mutation of x does not affect the problem.
func (p *Problem) SetOptimal(x *grid.Grid) {
	if x.N() != p.N {
		panic("problem: SetOptimal size mismatch")
	}
	p.opt = x.Clone()
	p.initErr = grid.L2DiffInterior(p.Boundary, p.opt)
}

// Optimal returns the reference solution, or nil if not yet computed.
func (p *Problem) Optimal() *grid.Grid { return p.opt }

// AccuracyOf returns the paper's accuracy level (§2.2) of a candidate output
// x, measured from the standard initial guess: ‖x₀ − x_opt‖₂ / ‖x − x_opt‖₂.
// Higher is better. An exact x scores +Inf, or 1 when the initial guess was
// exact too (no improvement possible or needed).
func (p *Problem) AccuracyOf(x *grid.Grid) float64 {
	p.mustOpt()
	return p.accuracy(grid.SumSqDiffInterior(x, p.opt, nil))
}

// Meets returns how many of targets, which ascend, x meets: the length of
// the prefix with AccuracyOf(x) ≥ target, bit for bit. It sums the squared
// error in AccuracyOf's order and answers 0 as soon as initErr/√partial <
// targets[0]. Partial sums only grow, and √ and division round
// monotonically, so the accuracy of the whole sum is below targets[0] too:
// stopping never changes the answer.
func (p *Problem) Meets(x *grid.Grid, targets []float64) int {
	p.mustOpt()
	if len(targets) == 0 {
		return 0
	}
	below := false
	sum := grid.SumSqDiffInterior(x, p.opt, func(partial float64) bool {
		below = p.initErr/math.Sqrt(partial) < targets[0]
		return below
	})
	if below {
		return 0
	}
	acc, met := p.accuracy(sum), 0
	for met < len(targets) && acc >= targets[met] {
		met++
	}
	return met
}

// accuracy is AccuracyOf for the squared error sum.
func (p *Problem) accuracy(sum float64) float64 {
	eout := math.Sqrt(sum)
	if eout == 0 {
		if p.initErr == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return p.initErr / eout
}

func (p *Problem) mustOpt() {
	if p.opt == nil {
		panic("problem: reference solution not set; compute it first")
	}
}
