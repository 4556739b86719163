// Package direct is the paper's direct algorithmic choice: a banded Cholesky
// solve of a grid's interior, the stand-in for LAPACK's DPBSV (§2.3). It has
// three parts: BandMatrix, the band factorization and triangular solves;
// InteriorSolver, one factored operator at one grid side; and Cache, which
// factors each (operator, side) once and keeps it. In 2D, with interior
// side m = N−2, the system has n = m² unknowns and half-bandwidth m, so
// factorization costs O(n·m²) = O(N⁴) and each solve costs O(n·m) = O(N³),
// matching the complexity table in §2 of the paper.
package direct

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrNotPositiveDefinite is returned by Factor when the matrix is not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("direct: matrix is not positive definite")

// BandMatrix is a symmetric matrix stored in lower-band form: entry (i, j)
// with 0 ≤ i−j ≤ bandwidth is kept at row i, distance i−j. After a
// successful Factor the storage holds the Cholesky factor L in place.
type BandMatrix struct {
	n         int
	bandwidth int
	w         int // entries per row = bandwidth + 1
	data      []float64
	factored  bool

	// rhs recycles the n-long right-hand sides of the interior solvers built
	// on this matrix (contents arbitrary on Get). A factored matrix is
	// shared by concurrent solves, so the vectors live in a sync.Pool — each
	// solve holds its own, and none outlives the next two GC cycles — not in
	// a field a solve would write.
	rhs sync.Pool
}

// NewBandMatrix returns a zero n×n symmetric band matrix with the given
// half-bandwidth (number of sub-diagonals kept).
func NewBandMatrix(n, bandwidth int) *BandMatrix {
	if n < 1 || bandwidth < 0 {
		panic(fmt.Sprintf("direct: invalid band matrix n=%d bw=%d", n, bandwidth))
	}
	if bandwidth > n-1 {
		bandwidth = n - 1
	}
	w := bandwidth + 1
	m := &BandMatrix{n: n, bandwidth: bandwidth, w: w, data: make([]float64, n*w)}
	m.rhs.New = func() any {
		v := make([]float64, n)
		return &v
	}
	return m
}

// at returns the stored value for (row, row−dist).
func (m *BandMatrix) at(row, dist int) float64 { return m.data[row*m.w+dist] }

// set stores v at (row, row−dist).
func (m *BandMatrix) set(row, dist int, v float64) { m.data[row*m.w+dist] = v }

// Set stores A(i, j) (and by symmetry A(j, i)). It panics if (i, j) lies
// outside the band or the matrix is already factored.
func (m *BandMatrix) Set(i, j int, v float64) {
	if m.factored {
		panic("direct: Set on factored matrix")
	}
	if j > i {
		i, j = j, i
	}
	if i-j > m.bandwidth {
		panic(fmt.Sprintf("direct: Set(%d,%d) outside bandwidth %d", i, j, m.bandwidth))
	}
	m.set(i, i-j, v)
}

// Factor computes the Cholesky factorization A = L·Lᵀ in place. It returns
// ErrNotPositiveDefinite if a non-positive pivot is encountered.
//
// Each entry below the pivot of column j is a dot product reduced as one
// dependent chain s −= L[i][k]·L[j][k], k ascending — a floating-point add
// latency per term. Four rows' chains are independent of one another and read
// the same L[j][k], so the column is walked four rows at a time with the four
// chains interleaved; every chain still subtracts its own terms in its own
// ascending-k order (a row whose band starts earlier than its group's last
// row runs those leading terms first), so each stored value is the one the
// row-at-a-time loop computes, bit for bit.
func (m *BandMatrix) Factor() error {
	n, bw, w, d := m.n, m.bandwidth, m.w, m.data
	for j := 0; j < n; j++ {
		// rowj[t] is L[j][j−t]: the terms of column j−t, t = 1 … bw.
		rowj := d[j*w : (j+1)*w]
		s := rowj[0]
		for t := min(j, bw); t >= 1; t-- {
			s -= rowj[t] * rowj[t]
		}
		if s <= 0 || math.IsNaN(s) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(s)
		rowj[0] = ljj
		hi := min(j+bw, n-1)
		i := j + 1
		for ; i+3 <= hi; i += 4 {
			// rows[r][t] is L[i+r][j−t], so t = 0 is the entry being formed.
			// Row i+r's band reaches back to column max(0, i+r−bw); the four
			// share the terms t < nt.
			nt := j - max(0, i+3-bw) + 1
			var rows [4][]float64
			var acc [4]float64
			for r := range rows {
				ir := i + r
				rows[r] = d[ir*w+ir-j : (ir+1)*w]
				acc[r] = rows[r][0]
				for t := j - max(0, ir-bw); t >= nt; t-- {
					acc[r] -= rows[r][t] * rowj[t]
				}
			}
			lj, a0, a1, a2, a3 := rowj[:nt], rows[0][:nt], rows[1][:nt], rows[2][:nt], rows[3][:nt]
			s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
			for t := nt - 1; t >= 1; t-- {
				l := lj[t]
				s0 -= a0[t] * l
				s1 -= a1[t] * l
				s2 -= a2[t] * l
				s3 -= a3[t] * l
			}
			a0[0], a1[0], a2[0], a3[0] = s0/ljj, s1/ljj, s2/ljj, s3/ljj
		}
		for ; i <= hi; i++ {
			rowi := d[i*w+i-j : (i+1)*w]
			s := rowi[0]
			for t := j - max(0, i-bw); t >= 1; t-- {
				s -= rowi[t] * rowj[t]
			}
			rowi[0] = s / ljj
		}
	}
	m.factored = true
	return nil
}

// Solve solves A·x = rhs using the computed factorization, overwriting rhs
// with the solution. Factor must have succeeded first.
func (m *BandMatrix) Solve(rhs []float64) {
	if !m.factored {
		panic("direct: Solve before Factor")
	}
	if len(rhs) != m.n {
		panic(fmt.Sprintf("direct: Solve rhs length %d != %d", len(rhs), m.n))
	}
	n, bw := m.n, m.bandwidth
	// Forward substitution L·y = rhs.
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		s := rhs[i]
		for k := lo; k < i; k++ {
			s -= m.at(i, i-k) * rhs[k]
		}
		rhs[i] = s / m.at(i, 0)
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		s := rhs[i]
		for k := i + 1; k <= hi; k++ {
			s -= m.at(k, k-i) * rhs[k]
		}
		rhs[i] = s / m.at(i, 0)
	}
}
