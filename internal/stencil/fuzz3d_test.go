package stencil

import (
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
)

// 3D counterparts of the 2D fuzz targets in fuzz_test.go: the poisson3d
// kernels must keep the same two invariants —
//
//  1. Parallel sweeps are bit-identical to serial sweeps (red-black
//     coloring by (i+j+k) parity makes every update within a half-sweep
//     independent, so plane chunking must not change a single bit).
//  2. OpResidual implements the 7-point operator the apply oracle states:
//     residual(x, b) == b − A·x up to floating-point association error.

// fuzzState3 derives a random 3D state from a fuzz seed, with magnitudes
// scaled by a fuzzed exponent to probe cancellation regimes.
func fuzzState3(n int, seed int64, scaleExp int) (x, b *grid.Grid) {
	scale := math.Ldexp(1, scaleExp%32)
	rng := rand.New(rand.NewSource(seed))
	x, b = grid.New3(n), grid.New3(n)
	xd, bd := x.Data(), b.Data()
	for i := range xd {
		xd[i] = (rng.Float64()*2 - 1) * scale
		bd[i] = (rng.Float64()*2 - 1) * scale
	}
	return x, b
}

// Fuzz3DSweepParallelMatchesSerial checks invariant 1 on the 3D SOR and
// Residual kernels at a cube size the pool splits.
func Fuzz3DSweepParallelMatchesSerial(f *testing.F) {
	f.Add(int64(1), 0, 1.2)
	f.Add(int64(2), 8, 0.9)
	f.Add(int64(3), 31, 1.7)
	pool := sharedPool()
	const n = 33 // the pool splits a cube of this side
	f.Fuzz(func(t *testing.T, seed int64, scaleExp int, omegaRaw float64) {
		omega := omegaRaw
		if math.IsNaN(omega) || math.IsInf(omega, 0) {
			omega = 1.15
		}
		omega = 0.1 + math.Mod(math.Abs(omega), 1.8) // ω ∈ (0, 2)
		op := Poisson3D()
		x0, b := fuzzState3(n, seed, scaleExp)
		h := 1.0 / float64(n-1)

		xs, xp := x0.Clone(), x0.Clone()
		for s := 0; s < 2; s++ {
			OpSORSweepRB(op, nil, xs, b, h, omega)
			OpSORSweepRB(op, pool, xp, b, h, omega)
		}
		assertBitIdentical(t, xs, xp, "SOR3")

		rs, rp := grid.New3(n), grid.New3(n)
		OpResidual(op, nil, rs, xs, b, h)
		OpResidual(op, pool, rp, xs, b, h)
		assertBitIdentical(t, rs, rp, "Residual3")
	})
}

// Fuzz3DApplyResidualConsistency checks invariant 2: the residual kernel and
// the independently written apply oracle agree on the 3D operator.
func Fuzz3DApplyResidualConsistency(f *testing.F) {
	f.Add(int64(1), 0)
	f.Add(int64(2), 16)
	f.Add(int64(5), 31)
	const n = 9
	f.Fuzz(func(t *testing.T, seed int64, scaleExp int) {
		op := Poisson3D()
		x, b := fuzzState3(n, seed, scaleExp)
		h := 1.0 / float64(n-1)

		r := grid.New3(n)
		OpResidual(op, nil, r, x, b, h)
		y := grid.New3(n)
		refApply(op, y, x, h)

		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				for k := 1; k < n-1; k++ {
					want := b.Row3(i, j)[k] - y.Row3(i, j)[k]
					got := r.Row3(i, j)[k]
					scale := math.Max(1, math.Abs(b.Row3(i, j)[k])+math.Abs(y.Row3(i, j)[k]))
					if math.Abs(got-want) > 1e-10*scale {
						t.Fatalf("residual(%d,%d,%d) = %v, want b−A·x = %v (scale %g)",
							i, j, k, got, want, scale)
					}
				}
			}
		}
		var sum float64
		rd := r.Data()
		for i := range rd {
			sum += rd[i] * rd[i]
		}
		if norm := OpResidualNorm(op, nil, x, b, h); math.Abs(norm-math.Sqrt(sum)) > 1e-9*math.Max(1, norm) {
			t.Fatalf("ResidualNorm %v != ‖residual grid‖ %v", norm, math.Sqrt(sum))
		}
	})
}
