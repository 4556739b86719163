package transfer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// The row providers (InterpRow/InterpRow3) and the row-fused InterpolateAdd
// are rearrangements of Interpolate (and an interior add) built on the same
// row helpers, so their outputs are bit-identical to the bulk kernels — the
// contract the fused upstroke kernels in internal/stencil rely on.

func randomGridDim(dim, n int, rng *rand.Rand) *grid.Grid {
	g := grid.NewDim(dim, n)
	grid.FillRandom(g, grid.Unbiased, rng)
	return g
}

func TestInterpRowMatchesInterpolate(t *testing.T) {
	for _, dim := range []int{2, 3} {
		nc := 17
		if dim == 3 {
			nc = 9
		}
		nf := 2*nc - 1
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(dim) + 5))
			coarse := randomGridDim(dim, nc, rng)
			fine := grid.NewDim(dim, nf)
			Interpolate(nil, fine, coarse)

			buf := make([]float64, nf)
			tmp := make([]float64, nf)
			if dim == 3 {
				for fi := 0; fi < nf; fi++ {
					for fj := 0; fj < nf; fj++ {
						InterpRow3(buf, tmp, coarse, fi, fj)
						want := fine.Row3(fi, fj)
						for k := 0; k < nf; k++ {
							// Interpolate zeroes the boundary after the fact;
							// the provider reports raw interpolated values,
							// which the fused kernels only read at interior
							// points.
							interior := fi > 0 && fi < nf-1 && fj > 0 && fj < nf-1 && k > 0 && k < nf-1
							if interior && math.Float64bits(want[k]) != math.Float64bits(buf[k]) {
								t.Fatalf("row (%d,%d): value differs at k=%d: %v vs %v", fi, fj, k, want[k], buf[k])
							}
						}
					}
				}
				return
			}
			for fi := 0; fi < nf; fi++ {
				InterpRow(buf, coarse, fi)
				want := fine.Row(fi)
				for j := 1; j < nf-1; j++ {
					if fi == 0 || fi == nf-1 {
						continue
					}
					if math.Float64bits(want[j]) != math.Float64bits(buf[j]) {
						t.Fatalf("row %d: value differs at j=%d: %v vs %v", fi, j, want[j], buf[j])
					}
				}
			}
		})
	}
}

func TestInterpolateAddFusedMatchesOracle(t *testing.T) {
	for _, dim := range []int{2, 3} {
		nc := 33
		if dim == 3 {
			nc = 9
		}
		nf := 2*nc - 1
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(dim) + 17))
			coarse := randomGridDim(dim, nc, rng)
			x0 := randomGridDim(dim, nf, rng)

			// The oracle: materialize the interpolant, then add its
			// interior.
			want := x0.Clone()
			scratch := grid.NewDim(dim, nf)
			Interpolate(nil, scratch, coarse)
			for i := 1; i < nf-1; i++ {
				if dim == 2 {
					wr, sr := want.Row(i), scratch.Row(i)
					for j := 1; j < nf-1; j++ {
						wr[j] += sr[j]
					}
					continue
				}
				for j := 1; j < nf-1; j++ {
					wr, sr := want.Row3(i, j), scratch.Row3(i, j)
					for k := 1; k < nf-1; k++ {
						wr[k] += sr[k]
					}
				}
			}

			for _, workers := range []int{0, 8} {
				var pool *sched.Pool
				if workers > 0 {
					pool = sched.NewPool(workers)
					defer pool.Close()
				}
				got := x0.Clone()
				InterpolateAdd(pool, got, coarse, randomGridDim(dim, nf, rng)) // dirty scratch
				if allocs := testing.AllocsPerRun(5, func() { InterpolateAdd(nil, x0.Clone(), coarse, scratch) }); allocs > 2 {
					t.Errorf("InterpolateAdd allocates %v times per call beyond the test's own Clone (2), want 0", allocs-2)
				}
				wd, gd := want.Data(), got.Data()
				for k := range wd {
					if math.Float64bits(wd[k]) != math.Float64bits(gd[k]) {
						t.Fatalf("workers=%d: value differs at %d: %v vs %v", workers, k, wd[k], gd[k])
					}
				}
			}
		})
	}
}
