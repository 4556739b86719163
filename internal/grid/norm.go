package grid

import "math"

// The norms branch explicitly on dimension (like ZeroBoundary)
// rather than folding through a per-point closure: they sit on the tuner's
// measurement path, where an interior scan is millions of points and an
// indirect call per point would dominate. All norms accumulate in float64
// regardless of the grid's storage precision, so convergence accounting on
// the float32 paths is as trustworthy as on the float64 ones.

// L2Interior returns the L2 norm of g over interior points only.
// Boundary entries are excluded because Dirichlet boundaries are fixed and
// carry no error.
func L2Interior[T Float](g *G[T]) float64 {
	n := g.n
	var sum float64
	if g.dim == 3 {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				row := g.Row3(i, j)
				for k := 1; k < n-1; k++ {
					v := float64(row[k])
					sum += v * v
				}
			}
		}
		return math.Sqrt(sum)
	}
	for i := 1; i < n-1; i++ {
		row := g.Row(i)
		for j := 1; j < n-1; j++ {
			v := float64(row[j])
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// L2DiffInterior returns the L2 norm of (a − b) over interior points.
func L2DiffInterior[T Float](a, b *G[T]) float64 {
	return math.Sqrt(SumSqDiffInterior(a, b, nil))
}

// SumSqDiffInterior returns the sum of (a − b)² over interior points, row
// by row in index order. A non-nil stop is asked after every row with the
// sum so far, and an answer of true returns that partial sum at once. No
// term is negative, so every partial sum is at most the full one: a caller
// that stops on a bound the partial sum already passes gets the answer the
// full sum would give.
func SumSqDiffInterior[T Float](a, b *G[T], stop func(partial float64) bool) float64 {
	if a.n != b.n || a.dim != b.dim {
		panic("grid: SumSqDiffInterior size mismatch")
	}
	n := a.n
	var sum float64
	if a.dim == 3 {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				ar, br := a.Row3(i, j), b.Row3(i, j)
				for k := 1; k < n-1; k++ {
					d := float64(ar[k]) - float64(br[k])
					sum += d * d
				}
				if stop != nil && stop(sum) {
					return sum
				}
			}
		}
		return sum
	}
	for i := 1; i < n-1; i++ {
		ar, br := a.Row(i), b.Row(i)
		for j := 1; j < n-1; j++ {
			d := float64(ar[j]) - float64(br[j])
			sum += d * d
		}
		if stop != nil && stop(sum) {
			return sum
		}
	}
	return sum
}

// MaxAbsInterior returns the max-norm of g over interior points.
func MaxAbsInterior[T Float](g *G[T]) float64 {
	n := g.n
	var m float64
	if g.dim == 3 {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				row := g.Row3(i, j)
				for k := 1; k < n-1; k++ {
					if v := math.Abs(float64(row[k])); v > m {
						m = v
					}
				}
			}
		}
		return m
	}
	for i := 1; i < n-1; i++ {
		row := g.Row(i)
		for j := 1; j < n-1; j++ {
			if v := math.Abs(float64(row[j])); v > m {
				m = v
			}
		}
	}
	return m
}

// HasNonFinite reports whether any entry of g (boundary included) is NaN or
// ±Inf. It vets every answer a solver hands back, so it is a branch-free
// reduction rather than a per-element classification: v − v is 0 for every
// finite v (±MaxFloat, denormals and −0 included) and NaN for NaN and ±Inf,
// and a sum of such terms is non-zero exactly when one of them was NaN. Eight
// independent accumulators keep the additions off each other's latency.
func HasNonFinite[T Float](g *G[T]) bool {
	d := g.data
	var s0, s1, s2, s3, s4, s5, s6, s7 T
	for ; len(d) >= 8; d = d[8:] {
		s0 += d[0] - d[0]
		s1 += d[1] - d[1]
		s2 += d[2] - d[2]
		s3 += d[3] - d[3]
		s4 += d[4] - d[4]
		s5 += d[5] - d[5]
		s6 += d[6] - d[6]
		s7 += d[7] - d[7]
	}
	for _, v := range d {
		s0 += v - v
	}
	return s0+s1+s2+s3+s4+s5+s6+s7 != 0
}
