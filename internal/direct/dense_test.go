package direct

import (
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// interiorPoints returns the data indices of a grid's interior points in
// lexicographic order, the unknowns' order in the band system.
func interiorPoints(dim, n int) []int {
	var pts []int
	for idx := range len(grid.NewDim(dim, n).Data()) {
		inside := true
		for c, d := idx, 0; d < dim; c, d = c/n, d+1 {
			if r := c % n; r == 0 || r == n-1 {
				inside = false
			}
		}
		if inside {
			pts = append(pts, idx)
		}
	}
	return pts
}

// denseInterior builds the dense interior matrix of op at grid side n one
// column at a time: column u is −(b − T·e_u) = T·e_u for the unit vector on
// interior point u, read back through stencil.OpResidual. It shares no code
// with the band assembly it checks.
func denseInterior(op *stencil.Operator, n int, h float64, pts []int) [][]float64 {
	dim := op.Dim()
	a := make([][]float64, len(pts))
	for i := range a {
		a[i] = make([]float64, len(pts))
	}
	e, zero, r := grid.NewDim(dim, n), grid.NewDim(dim, n), grid.NewDim(dim, n)
	for u, pu := range pts {
		e.Data()[pu] = 1
		stencil.OpResidual(op, nil, r, e, zero, h)
		e.Data()[pu] = 0
		for v, pv := range pts {
			a[v][u] = -r.Data()[pv]
		}
	}
	return a
}

// TestInteriorSolverMatchesDenseElimination checks the direct solve against
// mathematics rather than against another solver of this repo: the
// interior system, assembled densely from the residual kernel and solved by
// Gaussian elimination with partial pivoting, must give the band-Cholesky
// answer. The boundary moves to the right-hand side as b − T·x_∂, with x_∂
// the boundary values on a zero interior. Each family's bound is relative
// to max|x|; the conditioning of the family sets it.
func TestInteriorSolverMatchesDenseElimination(t *testing.T) {
	cases := []struct {
		family stencil.Family
		eps    float64
		sizes  []int
		tol    float64
	}{
		{stencil.FamilyPoisson, 0, []int{5, 9, 17}, 1e-13},
		{stencil.FamilyAnisotropic, 0.1, []int{5, 9, 17}, 1e-13},
		{stencil.FamilyAnisotropic, 0.01, []int{5, 9, 17}, 1e-12},
		{stencil.FamilyVarCoef, 2, []int{5, 9, 17}, 1e-13},
		{stencil.FamilyPoisson3D, 0, []int{5, 9}, 1e-13},
	}
	for _, tc := range cases {
		for _, n := range tc.sizes {
			op, err := stencil.NewOperator(tc.family, tc.eps, n)
			if err != nil {
				t.Fatal(err)
			}
			dim, h := op.Dim(), 1/float64(n-1)
			pts := interiorPoints(dim, n)
			rng := rand.New(rand.NewSource(int64(n)))
			x, b := grid.NewDim(dim, n), grid.NewDim(dim, n)
			for i := range x.Data() {
				x.Data()[i], b.Data()[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
			}
			bound, rhs := x.Clone(), grid.NewDim(dim, n)
			for _, p := range pts {
				bound.Data()[p] = 0
			}
			stencil.OpResidual(op, nil, rhs, bound, b, h)
			f := make([]float64, len(pts))
			for u, p := range pts {
				f[u] = rhs.Data()[p]
			}
			want := denseSolve(denseInterior(op, n, h, pts), f)

			NewInteriorSolver(op, n).Solve(x, b, h)
			var scale, worst float64
			for u, p := range pts {
				scale = max(scale, math.Abs(want[u]))
				worst = max(worst, math.Abs(x.Data()[p]-want[u]))
			}
			onBoundary := x.Clone()
			for _, p := range pts {
				onBoundary.Data()[p] = 0
			}
			for i, v := range bound.Data() {
				if onBoundary.Data()[i] != v {
					t.Fatalf("%v N=%d: boundary point %d moved from %v to %v", op, n, i, v, x.Data()[i])
				}
			}
			if worst > tc.tol*scale {
				t.Errorf("%v N=%d: band solve differs from dense elimination by %.3g = %.3g·max|x|, bound %g",
					op, n, worst, worst/scale, tc.tol)
			}
			t.Logf("%v N=%d: max difference %.3g·max|x|", op, n, worst/scale)
		}
	}
}
