// Package stencil implements the 5-point finite-difference kernels for the
// 2D Poisson equation T x = b with T = −∇² and Dirichlet boundaries:
//
//	(4·x[i,j] − x[i−1,j] − x[i+1,j] − x[i,j−1] − x[i,j+1]) / h² = b[i,j]
//
// It provides the paper's iterative building blocks — red-black Successive
// Over-Relaxation (the smoother and shortcut iterative solver), weighted
// Jacobi (evaluated and rejected by the paper's tuner, included for the same
// comparison), Gauss-Seidel — plus residual evaluation and operator apply.
// All kernels optionally parallelize across rows on a sched.Pool; red-black
// ordering keeps parallel execution bit-identical to serial execution.
package stencil

import (
	"math"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// OmegaOpt returns the optimal SOR relaxation weight for the 2D discrete
// Poisson equation with fixed boundaries on an n×n grid,
// ω* = 2 / (1 + sin(πh)) with h = 1/(n−1) (Demmel, Applied Numerical
// Linear Algebra §6.5.5). This is the ω_opt the paper fixes for the
// iterative-solver choice in MULTIGRID-Vᵢ.
func OmegaOpt(n int) float64 {
	h := 1.0 / float64(n-1)
	return 2 / (1 + math.Sin(math.Pi*h))
}

// OmegaRecurse is the SOR weight the paper fixes inside RECURSEᵢ smoothing
// steps, chosen by the authors' experimentation (§2.3).
const OmegaRecurse = 1.15

// parallelRows runs body over interior rows [1, n-1), in parallel when pool
// is non-nil and the grid carries enough points to amortize task overhead
// (the points-based gate shared with the 3D plane kernels — see
// sched.Pool.Splits).
func parallelRows(pool *sched.Pool, n int, body func(lo, hi int)) {
	if pool == nil {
		body(1, n-1)
		return
	}
	pool.ParallelForPoints(1, n-1, n, body)
}

// SORSweepRB performs one full red-black SOR sweep (red half-sweep then
// black half-sweep) in place on x with relaxation weight omega. Points are
// colored by (i+j) parity; within a color all updates are independent, so
// the sweep parallelizes deterministically.
func SORSweepRB[T grid.Float](pool *sched.Pool, x, b *grid.G[T], h, omega T) {
	k := bindRows(poissonOp, pool, x, b, nil, h, omega)
	k.sweep()
}

// GaussSeidelSweep performs one lexicographic Gauss-Seidel sweep in place.
// It is inherently sequential and provided for comparison and testing.
func GaussSeidelSweep[T grid.Float](x, b *grid.G[T], h T) {
	n := x.N()
	h2 := h * h
	for i := 1; i < n-1; i++ {
		xr := x.Row(i)
		up := x.Row(i - 1)
		down := x.Row(i + 1)
		br := b.Row(i)
		for j := 1; j < n-1; j++ {
			xr[j] = (up[j] + down[j] + xr[j-1] + xr[j+1] + h2*br[j]) * 0.25
		}
	}
}

// JacobiSweep performs one weighted-Jacobi sweep with weight w, reading from
// x and writing the relaxed iterate into out (boundary copied from x).
// out must not alias x.
func JacobiSweep[T grid.Float](pool *sched.Pool, out, x, b *grid.G[T], h, w T) {
	n := x.N()
	h2 := h * h
	out.CopyBoundaryFrom(x)
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			or := out.Row(i)
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			for j := 1; j < n-1; j++ {
				jac := (up[j] + down[j] + xr[j-1] + xr[j+1] + h2*br[j]) * 0.25
				or[j] = xr[j] + w*(jac-xr[j])
			}
		}
	})
}

// Residual computes r = b − T·x on interior points and zeroes r's boundary.
// r must not alias x or b.
func Residual[T grid.Float](pool *sched.Pool, r, x, b *grid.G[T], h T) {
	n := x.N()
	inv := 1 / (h * h)
	r.ZeroBoundary()
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rr := r.Row(i)
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			br := b.Row(i)
			for j := 1; j < n-1; j++ {
				rr[j] = br[j] - (4*xr[j]-up[j]-down[j]-xr[j-1]-xr[j+1])*inv
			}
		}
	})
}

// Apply computes y = T·x on interior points and zeroes y's boundary.
// y must not alias x.
func Apply[T grid.Float](pool *sched.Pool, y, x *grid.G[T], h T) {
	n := x.N()
	inv := 1 / (h * h)
	y.ZeroBoundary()
	parallelRows(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			yr := y.Row(i)
			xr := x.Row(i)
			up := x.Row(i - 1)
			down := x.Row(i + 1)
			for j := 1; j < n-1; j++ {
				yr[j] = (4*xr[j] - up[j] - down[j] - xr[j-1] - xr[j+1]) * inv
			}
		}
	})
}

// ResidualNorm returns ‖b − T·x‖₂ over interior points without allocating,
// useful for convergence checks in reference solvers.
func ResidualNorm[T grid.Float](x, b *grid.G[T], h T) float64 {
	n := x.N()
	inv := 1 / (h * h)
	var sum float64
	for i := 1; i < n-1; i++ {
		xr := x.Row(i)
		up := x.Row(i - 1)
		down := x.Row(i + 1)
		br := b.Row(i)
		for j := 1; j < n-1; j++ {
			r := float64(br[j] - (4*xr[j]-up[j]-down[j]-xr[j-1]-xr[j+1])*inv)
			sum += r * r
		}
	}
	return math.Sqrt(sum)
}
