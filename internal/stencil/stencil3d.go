// 7-point finite-difference kernels for the 3D Poisson equation T x = b
// with T = −∇² and Dirichlet boundaries on an N×N×N cube:
//
//	(6·x[i,j,k] − x[i±1,j,k] − x[i,j±1,k] − x[i,j,k±1]) / h² = b[i,j,k]
//
// These are the paper's headline scaling case. This file holds the unfused
// kernels — Gauss-Seidel, weighted Jacobi, residual, apply — parallelized
// over planes instead of rows: the oracles of the fused cycle kernels and
// the Jacobi ablation's smoother, like their 2D counterparts in stencil.go.
// The red-black SOR sweep, coloured by (i+j+k) parity, runs on the row
// kernels every family shares (rows.go, fused.go).
package stencil

import (
	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// parallelPlanes runs body over interior planes [1, n-1), in parallel when
// pool is non-nil and the cube carries enough points to amortize task
// overhead. The gate is the same points-based threshold the 2D row kernels
// use (sched.Pool.Splits): each plane carries N² points, so coarse
// cubes drop to serial at the same work size as coarse squares instead of
// at a hand-tuned per-dimension iteration count.
func parallelPlanes(pool *sched.Pool, n int, body func(lo, hi int)) {
	if pool == nil {
		body(1, n-1)
		return
	}
	pool.ParallelForPoints(1, n-1, n*n, body)
}

// gaussSeidel3 performs one lexicographic Gauss-Seidel sweep in place. Like
// its 2D counterpart it is inherently sequential and provided for comparison
// and testing; the solve path smooths with red-black SOR.
func gaussSeidel3[T grid.Float](x, b *grid.G[T], h T) {
	n := x.N()
	h2 := h * h
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			xr := x.Row3(i, j)
			up := x.Row3(i-1, j)
			down := x.Row3(i+1, j)
			north := x.Row3(i, j-1)
			south := x.Row3(i, j+1)
			br := b.Row3(i, j)
			for k := 1; k < n-1; k++ {
				xr[k] = (up[k] + down[k] + north[k] + south[k] + xr[k-1] + xr[k+1] + h2*br[k]) * (1.0 / 6.0)
			}
		}
	}
}

// jacobiSweep3 performs one weighted-Jacobi sweep with weight w, reading
// from x and writing the relaxed iterate into out (boundary copied from x).
// out must not alias x.
func jacobiSweep3[T grid.Float](pool *sched.Pool, out, x, b *grid.G[T], h, w T) {
	n := x.N()
	h2 := h * h
	out.CopyBoundaryFrom(x)
	parallelPlanes(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 1; j < n-1; j++ {
				or := out.Row3(i, j)
				xr := x.Row3(i, j)
				up := x.Row3(i-1, j)
				down := x.Row3(i+1, j)
				north := x.Row3(i, j-1)
				south := x.Row3(i, j+1)
				br := b.Row3(i, j)
				for k := 1; k < n-1; k++ {
					jac := (up[k] + down[k] + north[k] + south[k] + xr[k-1] + xr[k+1] + h2*br[k]) * (1.0 / 6.0)
					or[k] = xr[k] + w*(jac-xr[k])
				}
			}
		}
	})
}

// residual3 computes r = b − T·x on interior points and zeroes r's boundary.
// r must not alias x or b.
func residual3[T grid.Float](pool *sched.Pool, r, x, b *grid.G[T], h T) {
	n := x.N()
	inv := 1 / (h * h)
	r.ZeroBoundary()
	parallelPlanes(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 1; j < n-1; j++ {
				rr := r.Row3(i, j)
				xr := x.Row3(i, j)
				up := x.Row3(i-1, j)
				down := x.Row3(i+1, j)
				north := x.Row3(i, j-1)
				south := x.Row3(i, j+1)
				br := b.Row3(i, j)
				for k := 1; k < n-1; k++ {
					rr[k] = br[k] - (6*xr[k]-up[k]-down[k]-north[k]-south[k]-xr[k-1]-xr[k+1])*inv
				}
			}
		}
	})
}

// apply3 computes y = T·x on interior points and zeroes y's boundary.
// y must not alias x.
func apply3[T grid.Float](pool *sched.Pool, y, x *grid.G[T], h T) {
	n := x.N()
	inv := 1 / (h * h)
	y.ZeroBoundary()
	parallelPlanes(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 1; j < n-1; j++ {
				yr := y.Row3(i, j)
				xr := x.Row3(i, j)
				up := x.Row3(i-1, j)
				down := x.Row3(i+1, j)
				north := x.Row3(i, j-1)
				south := x.Row3(i, j+1)
				for k := 1; k < n-1; k++ {
					yr[k] = (6*xr[k] - up[k] - down[k] - north[k] - south[k] - xr[k-1] - xr[k+1]) * inv
				}
			}
		}
	})
}
