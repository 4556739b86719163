package transfer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// The correction's row kernels (InterpAddRow/InterpAddRow3) and the
// InterpolateAdd built on them evaluate Interpolate's arithmetic point by
// point and add it straight into x, so their outputs are bit-identical to
// interpolating into a grid and adding its interior — the contract the
// fused upstroke kernels in internal/stencil rely on.

func randomGridDim(dim, n int, rng *rand.Rand) *grid.Grid {
	g := grid.NewDim(dim, n)
	grid.FillRandom(g, grid.Unbiased, rng)
	return g
}

// TestInterpRowMatchesInterpolate holds each interior fine row the row
// kernels correct to the same row of Interpolate added to it, bit for bit,
// and their ends untouched.
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

			row := make([]float64, nf)
			check := func(what string, want []float64, add func(xr []float64)) {
				for k := range row {
					row[k] = rng.Float64()
				}
				x0 := append([]float64(nil), row...)
				add(row)
				for k := range row {
					w := x0[k]
					if k > 0 && k < nf-1 {
						w += want[k]
					}
					if math.Float64bits(row[k]) != math.Float64bits(w) {
						t.Fatalf("%s: value differs at k=%d: %v, want %v", what, k, row[k], w)
					}
				}
			}
			for fi := 1; fi < nf-1; fi++ {
				ci := fi / 2
				if dim == 2 {
					var down []float64
					if fi%2 == 1 {
						down = coarse.Row(ci + 1)
					}
					check(fmt.Sprintf("row %d", fi), fine.Row(fi), func(xr []float64) { InterpAddRow(xr, coarse.Row(ci), down) })
					continue
				}
				for fj := 1; fj < nf-1; fj++ {
					cj := fj / 2
					var aDown, bDown []float64
					if fj%2 == 1 {
						aDown = coarse.Row3(ci, cj+1)
					}
					add := func(xr []float64) { InterpAddRow(xr, coarse.Row3(ci, cj), aDown) }
					if fi%2 == 1 {
						if fj%2 == 1 {
							bDown = coarse.Row3(ci+1, cj+1)
						}
						add = func(xr []float64) {
							InterpAddRow3(xr, coarse.Row3(ci, cj), aDown, coarse.Row3(ci+1, cj), bDown)
						}
					}
					check(fmt.Sprintf("row (%d,%d)", fi, fj), fine.Row3(fi, fj), add)
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
				InterpolateAdd(pool, got, coarse)
				if allocs := testing.AllocsPerRun(5, func() { InterpolateAdd(nil, x0.Clone(), coarse) }); allocs > 2 {
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
