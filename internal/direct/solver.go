package direct

import (
	"fmt"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// Direct3DMaxN caps the grid side of 3D direct factorizations. The 3D
// interior matrix has m³ unknowns (m = N−2) and half-bandwidth m², so band
// Cholesky storage grows like m⁵ doubles: ~6 MB at N=17, ~230 MB at N=33,
// and ~7 GB at N=65 — past N=33 a factorization would silently thrash or
// OOM, which is worse than failing loudly. Multigrid only ever solves
// directly at coarse levels, so the cap never binds on the cycle path.
const Direct3DMaxN = 33

// InteriorSolver is a factored band-Cholesky solver for the interior of a
// stencil operator problem T·x = b on an N-point grid side, with Dirichlet
// boundary values taken from x. In 2D the interior matrix is assembled from
// the operator's face coefficients (diagonal = their sum, off-diagonals =
// −face coefficient); in 3D it is the 7-point Laplacian (diagonal 6,
// off-diagonals −1) with half-bandwidth m² = (N−2)². The h² scaling is
// applied to the right-hand side at solve time. Positive face coefficients
// make the matrix symmetric positive definite, so the factorization cannot
// fail for a valid operator.
//
// The factorization is computed once and reused across solves, as a tuned
// algorithm would reuse a precomputed plan. After construction a solver is
// immutable: Solve reads the factored bands and writes only its arguments
// and a pooled right-hand side of its own, so one solver may serve
// concurrent solves on distinct grids.
type InteriorSolver struct {
	n  int               // grid side
	op *stencil.Operator // resolved to grid side n
	a  *BandMatrix

	// 2D only: the stencil weights of the boundary neighbours Solve moves
	// to the right-hand side, along the first interior row (north), the
	// last (south), the first interior column (west) and the last (east).
	north, south, west, east []float64
}

// NewInteriorSolver assembles and factors the interior operator of op at
// grid side n ≥ 3. A variable-coefficient op is resolved to size n (see
// Operator.At); 3D operators are capped at Direct3DMaxN.
func NewInteriorSolver(op *stencil.Operator, n int) *InteriorSolver {
	if n < 3 {
		panic(fmt.Sprintf("direct: grid side %d too small", n))
	}
	op = op.At(n)
	a := assembleBand(op, n)
	if err := a.Factor(); err != nil {
		// Positive face coefficients make the matrix an SPD M-matrix by
		// construction; failure here means an invalid operator slipped past
		// the family constructors.
		panic(fmt.Sprintf("direct: operator %v failed to factor: %v", op, err))
	}
	s := &InteriorSolver{n: n, op: op, a: a}
	if op.Dim() == 2 {
		m := n - 2
		s.north, s.south, s.west, s.east = make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m)
		for k := 0; k < m; k++ {
			s.north[k], _, _, _ = op.FaceCoefs(1, k+1)
			_, s.south[k], _, _ = op.FaceCoefs(m, k+1)
			_, _, s.west[k], _ = op.FaceCoefs(k+1, 1)
			_, _, _, s.east[k] = op.FaceCoefs(k+1, m)
		}
	}
	return s
}

// assembleBand assembles the interior matrix of op (resolved to grid side
// n), unfactored.
func assembleBand(op *stencil.Operator, n int) *BandMatrix {
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

// Solve overwrites the interior of x with the exact solution of T·x = b,
// using x's boundary entries as Dirichlet data. h is the mesh spacing.
func (s *InteriorSolver) Solve(x, b *grid.Grid, h float64) {
	dim := s.op.Dim()
	if x.N() != s.n || b.N() != s.n || x.Dim() != dim || b.Dim() != dim {
		panic(fmt.Sprintf("direct: Solve shape mismatch: solver %dD side %d, x %dD side %d, b %dD side %d",
			dim, s.n, x.Dim(), x.N(), b.Dim(), b.N()))
	}
	m := s.n - 2
	scratch := s.a.rhs.Get().(*[]float64)
	defer s.a.rhs.Put(scratch)
	rhs := *scratch // every entry is assigned below
	if dim == 3 {
		s.load3(rhs, x, b, h*h)
		s.a.Solve(rhs)
		for l := 0; l < m*m; l++ {
			copy(x.Row3(l/m+1, l%m+1)[1:1+m], rhs[l*m:])
		}
		return
	}
	s.load2(rhs, x, b, h*h)
	s.a.Solve(rhs)
	for i := 0; i < m; i++ {
		copy(x.Row(i + 1)[1:1+m], rhs[i*m:])
	}
}

// load2 fills the 2D right-hand side h²·b and moves each known boundary
// neighbour across with its stencil weight: north, south, west, east, the
// order every point has always added them in.
func (s *InteriorSolver) load2(rhs []float64, x, b *grid.Grid, h2 float64) {
	n, m := s.n, s.n-2
	for i := 0; i < m; i++ {
		br, xr, out := b.Row(i + 1)[1:1+m], x.Row(i+1), rhs[i*m:(i+1)*m]
		for j, v := range br {
			out[j] = h2 * v
		}
		if i == 0 {
			addWeighted(out, s.north, x.Row(0)[1:])
		}
		if i == m-1 {
			addWeighted(out, s.south, x.Row(n - 1)[1:])
		}
		out[0] += s.west[i] * xr[0]
		out[m-1] += s.east[i] * xr[n-1]
	}
}

// load3 is load2 for the 7-point stencil, whose boundary neighbours all
// carry weight 1 and so move across unscaled, in the order i, j, k.
func (s *InteriorSolver) load3(rhs []float64, x, b *grid.Grid, h2 float64) {
	n, m := s.n, s.n-2
	for i := 0; i < m; i++ {
		gi := i + 1
		for j := 0; j < m; j++ {
			gj := j + 1
			br, xr, out := b.Row3(gi, gj)[1:1+m], x.Row3(gi, gj), rhs[(i*m+j)*m:][:m]
			for k, v := range br {
				out[k] = h2 * v
			}
			if i == 0 {
				addTo(out, x.Row3(0, gj)[1:])
			}
			if i == m-1 {
				addTo(out, x.Row3(n-1, gj)[1:])
			}
			if j == 0 {
				addTo(out, x.Row3(gi, 0)[1:])
			}
			if j == m-1 {
				addTo(out, x.Row3(gi, n-1)[1:])
			}
			out[0] += xr[0]
			out[m-1] += xr[n-1]
		}
	}
}

// addTo adds src to dst elementwise over dst's length.
func addTo(dst, src []float64) {
	src = src[:len(dst)]
	for k := range dst {
		dst[k] += src[k]
	}
}

// addWeighted adds w·src to dst elementwise over dst's length.
func addWeighted(dst, w, src []float64) {
	w, src = w[:len(dst)], src[:len(dst)]
	for k := range dst {
		dst[k] += w[k] * src[k]
	}
}
