package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/transfer"
)

// Equivalence suite for the fused upstroke (InterpolateCorrectSmooth +
// FinishSmooth), run for every operator family ×
// {2D, 3D} × {serial, 8-goroutine pool} against the unfused oracles.
// Everything here is bit-identity: the fused upstroke performs the oracle's
// adds and relaxations on the same values in the same per-point order.

// randomCorrection builds a random coarse correction grid like the ones the
// coarse solve hands the upstroke.
func randomCorrection(dim, n int, rng *rand.Rand) *grid.Grid {
	c := grid.NewDim(dim, grid.Coarsen(n))
	grid.FillRandom(c, grid.Unbiased, rng)
	return c
}

func TestInterpolateCorrectSmoothMatchesOracle(t *testing.T) {
	for _, tc := range fusedCases() {
		for _, n := range tc.ns {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				op := tc.mk(n)
				h := 1.0 / float64(n-1)
				omega := op.OmegaSmooth()
				rng := rand.New(rand.NewSource(int64(n) + 101))
				x0, b := randomStateDim(tc.dim, n, rng)
				cx := randomCorrection(tc.dim, n, rng)

				// Oracle upstroke: interpolate+correct, then a full sweep.
				xo := x0.Clone()
				transfer.InterpolateAdd(nil, xo, cx)
				OpSORSweepRB(op, nil, xo, b, h, omega)

				withPools(t, func(t *testing.T, pool *sched.Pool) {
					xf := x0.Clone()
					OpInterpolateCorrectSmooth(op, pool, xf, b, cx, h, omega)
					OpFinishSmooth(op, pool, xf, b, h, omega)
					assertBitIdentical(t, xo, xf, "fused upstroke iterate")
				})
			})
		}
	}
}

// TestFinishSmoothWithNormMatchesOracle checks the last stroke of a cycle
// followed by a residual-norm probe: the fused upstroke, then
// OpResidualNorm on the result, against the correction, a serial
// OpSORSweepRB and a serial OpResidualNorm.
func TestFinishSmoothWithNormMatchesOracle(t *testing.T) {
	for _, tc := range fusedCases() {
		for _, n := range tc.ns {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				op := tc.mk(n)
				h := 1.0 / float64(n-1)
				omega := op.OmegaSmooth()
				rng := rand.New(rand.NewSource(int64(n) + 211))
				x0, b := randomStateDim(tc.dim, n, rng)
				cx := randomCorrection(tc.dim, n, rng)

				xo := x0.Clone()
				transfer.InterpolateAdd(nil, xo, cx)
				OpSORSweepRB(op, nil, xo, b, h, omega)
				wantNorm := OpResidualNorm(op, nil, xo, b, h)

				withPools(t, func(t *testing.T, pool *sched.Pool) {
					xf := x0.Clone()
					OpInterpolateCorrectSmooth(op, pool, xf, b, cx, h, omega)
					OpFinishSmooth(op, pool, xf, b, h, omega)
					assertBitIdentical(t, xo, xf, "fused upstroke iterate")
					// Same values through the same fixed per-row reduction:
					// the norm is bit-identical, serial or pooled.
					norm := OpResidualNorm(op, pool, xf, b, h)
					if math.Float64bits(norm) != math.Float64bits(wantNorm) {
						t.Fatalf("norm %v (%x) differs from oracle %v (%x)",
							norm, math.Float64bits(norm), wantNorm, math.Float64bits(wantNorm))
					}
				})
			})
		}
	}
}
