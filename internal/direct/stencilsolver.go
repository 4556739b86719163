package direct

import (
	"fmt"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// InteriorSolver is a factored direct solver for the interior of a stencil
// operator problem T·x = b with Dirichlet boundary values taken from x.
// Both PoissonSolver (the specialized 2D constant-coefficient path) and
// StencilSolver (the general operator-family path, 2D and 3D) implement it;
// after construction both are immutable and safe for concurrent Solve calls.
type InteriorSolver interface {
	N() int
	Solve(x, b *grid.Grid, h float64)
	FactorFlops() float64
	SolveFlops() float64
}

// Direct3DMaxN caps the grid side of 3D direct factorizations. The 3D
// interior matrix has m³ unknowns (m = N−2) and half-bandwidth m², so band
// Cholesky storage grows like m⁵ doubles: ~6 MB at N=17, ~230 MB at N=33,
// and ~7 GB at N=65 — past N=33 a factorization would silently thrash or
// OOM, which is worse than failing loudly. Multigrid only ever solves
// directly at coarse levels, so the cap never binds on the cycle path.
const Direct3DMaxN = 33

// NewInteriorSolver factors the interior operator of op at grid side n,
// routing the 2D constant-coefficient Laplacian to the specialized
// PoissonSolver and every other family — including the 3D 7-point
// Laplacian — through general band assembly.
func NewInteriorSolver(op *stencil.Operator, n int) InteriorSolver {
	if op == nil || op.Family() == stencil.FamilyPoisson {
		return NewPoissonSolver(n)
	}
	return NewStencilSolver(op, n)
}

// StencilSolver is the band-Cholesky solver for a general stencil operator
// family. In 2D the interior matrix is assembled from the operator's face
// coefficients (diagonal = coefficient sum, off-diagonals = −face
// coefficient); in 3D it is the constant 7-point Laplacian (diagonal 6,
// off-diagonals −1) with half-bandwidth m² = (N−2)². The h² scaling is
// applied to the right-hand side at solve time, matching PoissonSolver's
// convention. Anisotropic and variable-coefficient operators with positive
// coefficients — and the 3D Laplacian — yield symmetric positive-definite
// matrices, so the factorization cannot fail for valid operators.
type StencilSolver struct {
	n   int // grid side
	m   int // interior side n−2
	dim int // spatial dimension of the operator (2 or 3)
	op  *stencil.Operator
	a   *BandMatrix
}

// NewStencilSolver assembles and factors the interior operator of op at
// grid side n ≥ 3. For variable-coefficient operators, op must be resolved
// to size n (see Operator.At). 3D operators are capped at Direct3DMaxN.
func NewStencilSolver(op *stencil.Operator, n int) *StencilSolver {
	if n < 3 {
		panic(fmt.Sprintf("direct: grid side %d too small", n))
	}
	op = op.At(n)
	s := &StencilSolver{n: n, m: n - 2, dim: op.Dim(), op: op, a: stencilBand(op, n)}
	if err := s.a.Factor(); err != nil {
		// Positive face coefficients make the matrix an SPD M-matrix by
		// construction; failure here means an invalid operator slipped past
		// the family constructors.
		panic(fmt.Sprintf("direct: operator %v failed to factor: %v", op, err))
	}
	return s
}

// stencilBand assembles the interior matrix of op (resolved to grid side n),
// unfactored.
func stencilBand(op *stencil.Operator, n int) *BandMatrix {
	m := n - 2
	if op.Dim() == 3 {
		if op.Family() != stencil.FamilyPoisson3D {
			// The 3D assembly below hardcodes the isotropic 7-point stencil;
			// a future 3D family with different weights must extend it, not
			// silently factor the wrong matrix.
			panic(fmt.Sprintf("direct: no 3D band assembly for operator %v", op))
		}
		if n > Direct3DMaxN {
			panic(fmt.Sprintf(
				"direct: 3D grid side %d exceeds the direct-solve cap %d (band storage grows like N⁵; use multigrid at this size)",
				n, Direct3DMaxN))
		}
		a := NewBandMatrix(m*m*m, m*m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				for k := 0; k < m; k++ {
					u := (i*m+j)*m + k
					a.Set(u, u, 6)
					if k > 0 {
						a.Set(u, u-1, -1)
					}
					if j > 0 {
						a.Set(u, u-m, -1)
					}
					if i > 0 {
						a.Set(u, u-m*m, -1)
					}
				}
			}
		}
		return a
	}
	a := NewBandMatrix(m*m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			cn, cs, cw, ce := op.FaceCoefs(i+1, j+1)
			k := i*m + j
			a.Set(k, k, cn+cs+cw+ce)
			if j > 0 {
				a.Set(k, k-1, -cw)
			}
			if i > 0 {
				a.Set(k, k-m, -cn)
			}
		}
	}
	return a
}

// N returns the grid side length the solver was built for.
func (s *StencilSolver) N() int { return s.n }

// Operator returns the operator the solver was assembled from.
func (s *StencilSolver) Operator() *stencil.Operator { return s.op }

// Solve overwrites the interior of x with the exact solution of T·x = b,
// using x's boundary entries as Dirichlet data. h is the mesh spacing.
func (s *StencilSolver) Solve(x, b *grid.Grid, h float64) {
	if x.N() != s.n || b.N() != s.n {
		panic(fmt.Sprintf("direct: Solve size mismatch: solver %d, x %d, b %d", s.n, x.N(), b.N()))
	}
	if s.dim == 3 {
		s.solve3(x, b, h)
		return
	}
	m := s.m
	h2 := h * h
	scratch := s.a.rhs.Get().(*[]float64)
	defer s.a.rhs.Put(scratch)
	rhs := *scratch // every entry is assigned below
	for i := 0; i < m; i++ {
		gi := i + 1
		br := b.Row(gi)
		for j := 0; j < m; j++ {
			gj := j + 1
			cn, cs, cw, ce := s.op.FaceCoefs(gi, gj)
			v := h2 * br[gj]
			// Move known boundary neighbours to the right-hand side with
			// their stencil weights.
			if i == 0 {
				v += cn * x.At(0, gj)
			}
			if i == m-1 {
				v += cs * x.At(s.n-1, gj)
			}
			if j == 0 {
				v += cw * x.At(gi, 0)
			}
			if j == m-1 {
				v += ce * x.At(gi, s.n-1)
			}
			rhs[i*m+j] = v
		}
	}
	s.a.Solve(rhs)
	for i := 0; i < m; i++ {
		xr := x.Row(i + 1)
		copy(xr[1:1+m], rhs[i*m:(i+1)*m])
	}
}

// solve3 is the 3D solve path: boundary neighbours of the 7-point stencil
// all carry weight 1, so they move to the right-hand side unscaled.
func (s *StencilSolver) solve3(x, b *grid.Grid, h float64) {
	m := s.m
	h2 := h * h
	scratch := s.a.rhs.Get().(*[]float64)
	defer s.a.rhs.Put(scratch)
	rhs := *scratch // every entry is assigned below
	for i := 0; i < m; i++ {
		gi := i + 1
		for j := 0; j < m; j++ {
			gj := j + 1
			br := b.Row3(gi, gj)
			base := (i*m + j) * m
			for k := 0; k < m; k++ {
				gk := k + 1
				v := h2 * br[gk]
				if i == 0 {
					v += x.At3(0, gj, gk)
				}
				if i == m-1 {
					v += x.At3(s.n-1, gj, gk)
				}
				if j == 0 {
					v += x.At3(gi, 0, gk)
				}
				if j == m-1 {
					v += x.At3(gi, s.n-1, gk)
				}
				if k == 0 {
					v += x.At3(gi, gj, 0)
				}
				if k == m-1 {
					v += x.At3(gi, gj, s.n-1)
				}
				rhs[base+k] = v
			}
		}
	}
	s.a.Solve(rhs)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			xr := x.Row3(i+1, j+1)
			base := (i*m + j) * m
			copy(xr[1:1+m], rhs[base:base+m])
		}
	}
}

// FactorFlops reports the (estimated) cost of the one-time factorization.
func (s *StencilSolver) FactorFlops() float64 { return s.a.FactorFlops() }

// SolveFlops reports the (estimated) cost of one Solve call.
func (s *StencilSolver) SolveFlops() float64 { return s.a.SolveFlops() }
