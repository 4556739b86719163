// Package stencil implements the finite-difference kernels of T x = b with
// Dirichlet boundaries, for the 5-point 2D Poisson equation (T = −∇²)
//
//	(4·x[i,j] − x[i−1,j] − x[i+1,j] − x[i,j−1] − x[i,j+1]) / h² = b[i,j]
//
// its anisotropic and variable-coefficient relatives, and the 7-point 3D
// Poisson equation on an N×N×N cube
//
//	(6·x[i,j,k] − x[i±1,j,k] − x[i,j±1,k] − x[i,j,k±1]) / h² = b[i,j,k]
//
// (operator.go). It provides the paper's iterative building block — red-black
// Successive Over-Relaxation, the one smoother (§2.3) and the shortcut
// iterative solver — plus the residual, its norm, and the fused V-cycle
// strokes. Every entry point is an Op* function generic over the storage
// precision, and every one binds the same row kernels (rows.go) to its grids
// and runs them under one serial or one pooled driver (fused.go, upstroke.go).
// Red-black ordering keeps a pooled run bit-identical to a serial one.
package stencil

import "math"

// OmegaOpt returns the optimal SOR relaxation weight for the 2D discrete
// Poisson equation with fixed boundaries on an n×n grid,
// ω* = 2 / (1 + sin(πh)) with h = 1/(n−1) (Demmel, Applied Numerical
// Linear Algebra §6.5.5). This is the ω_opt the paper fixes for the
// iterative-solver choice in MULTIGRID-Vᵢ, and the iterated-SOR shortcut
// uses it for every family.
//
// The same formula is exact for the anisotropic family: the Jacobi
// iteration matrix has eigenvalues (ε·cos(kπh) + cos(lπh))/(1 + ε), whose
// spectral radius cos(πh) does not depend on ε, so Young's ω* is unchanged.
// It is also exact for the 3D Laplacian: the Jacobi eigenvalues average one
// cosine per axis, so the spectral radius is cos(πh) in any dimension. For
// smooth variable-coefficient fields there is no closed form; the Laplacian
// value is the standard heuristic (red-black SOR on an SPD operator
// converges for any ω ∈ (0, 2), so the choice affects speed, not
// correctness).
func OmegaOpt(n int) float64 {
	h := 1.0 / float64(n-1)
	return 2 / (1 + math.Sin(math.Pi*h))
}

// OmegaRecurse is the SOR weight the paper fixes inside RECURSEᵢ smoothing
// steps, chosen by the authors' experimentation (§2.3).
const OmegaRecurse = 1.15
