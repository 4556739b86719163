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
// FinishSmooth/FinishSmoothWithNorm) and the unit-stride color-split sweeps,
// run for every operator family × {2D, 3D} × {serial, 8-goroutine pool}
// against the unfused strided oracles. Everything here is bit-identity: the
// fused upstroke performs the oracle's adds and relaxations on the same
// values in the same per-point order, and the split sweeps evaluate the
// strided update expression verbatim on repacked storage.

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
				scratch := grid.NewDim(tc.dim, n)
				transfer.InterpolateAdd(nil, xo, cx, scratch)
				op.SORSweepRB(nil, xo, b, h, omega)

				withPools(t, func(t *testing.T, pool *sched.Pool) {
					xf := x0.Clone()
					op.InterpolateCorrectSmooth(pool, xf, b, cx, h, omega)
					op.FinishSmooth(pool, xf, b, h, omega)
					assertBitIdentical(t, xo, xf, "fused upstroke iterate")
				})
			})
		}
	}
}

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

				// Oracle: separate correction, then the norm-fused sweep the
				// adaptive driver uses (itself locked to the residual oracle
				// by TestSweepWithNormMatchesOracle).
				xo := x0.Clone()
				scratch := grid.NewDim(tc.dim, n)
				transfer.InterpolateAdd(nil, xo, cx, scratch)
				wantNorm := op.SweepWithNorm(nil, xo, b, h, omega)

				withPools(t, func(t *testing.T, pool *sched.Pool) {
					xf := x0.Clone()
					op.InterpolateCorrectSmooth(pool, xf, b, cx, h, omega)
					norm := op.FinishSmoothWithNorm(pool, xf, b, h, omega)
					assertBitIdentical(t, xo, xf, "fused upstroke+norm iterate")
					// Same values through the same fixed per-row reduction:
					// the norm is bit-identical, serial or pooled.
					if math.Float64bits(norm) != math.Float64bits(wantNorm) {
						t.Fatalf("norm %v (%x) differs from oracle %v (%x)",
							norm, math.Float64bits(norm), wantNorm, math.Float64bits(wantNorm))
					}
				})
			})
		}
	}
}

func TestSplitPackUnpackRoundTrip(t *testing.T) {
	const n = 17
	rng := rand.New(rand.NewSource(3))
	g := grid.New3(n)
	grid.FillRandom(g, grid.Biased, rng)
	s := grid.NewSplit(n)
	s.Pack(g)
	out := grid.New3(n)
	out.Fill(math.NaN())
	s.Unpack(out)
	assertBitIdentical(t, g, out, "pack/unpack round trip")
}

func TestSORSweepsSplitMatchesStrided(t *testing.T) {
	op := Poisson3D()
	for _, n := range []int{17, 33} {
		for _, sweeps := range []int{1, 3} {
			t.Run(fmt.Sprintf("n%d/k%d", n, sweeps), func(t *testing.T) {
				h := 1.0 / float64(n-1)
				omega := op.OmegaSmooth()
				rng := rand.New(rand.NewSource(int64(n) + 307))
				x0, b := randomState3(n, rng)

				xo := x0.Clone()
				for s := 0; s < sweeps; s++ {
					op.SORSweepRB(nil, xo, b, h, omega)
				}

				withPools(t, func(t *testing.T, pool *sched.Pool) {
					xs := x0.Clone()
					// Call the split path directly, below its size gate.
					sorSweepsSplit(pool, xs, b, h, omega, sweeps)
					assertBitIdentical(t, xo, xs, "split sweep iterate")
				})
			})
		}
	}
}

func TestSORSweepsHonorsGate(t *testing.T) {
	cases := []struct {
		dim, n, sweeps int
		want           bool
	}{
		{2, 257, 8, false}, // 2D never splits: the strided row wavefront beats it
		{2, 513, 64, false},
		{3, 65, 8, true},
		{3, 65, 7, false}, // too few sweeps to amortize pack/unpack
		{3, 33, 64, false},
		{3, 129, 8, true}, // no 3D upper bound: strided pencils stay slow
	}
	for _, c := range cases {
		if got := SplitWorthwhile(c.dim, c.n, c.sweeps); got != c.want {
			t.Errorf("SplitWorthwhile(%d, %d, %d) = %v, want %v",
				c.dim, c.n, c.sweeps, got, c.want)
		}
	}
	// And the public entry point agrees with the strided loop bit for bit on
	// a gated (large) configuration.
	op := Poisson3D()
	n := splitMinN3
	h := 1.0 / float64(n-1)
	omega := OmegaOpt(n)
	rng := rand.New(rand.NewSource(11))
	x0, b := randomState3(n, rng)
	xo := x0.Clone()
	for s := 0; s < splitMinSweeps; s++ {
		op.SORSweepRB(nil, xo, b, h, omega)
	}
	xs := x0.Clone()
	op.SORSweeps(nil, xs, b, h, omega, splitMinSweeps)
	assertBitIdentical(t, xo, xs, "gated SORSweeps iterate")
}

// FuzzSplitMatchesStrided drives the color-split sweeps against the strided
// oracle on random states, weights, and sweep counts, bypassing the size
// gate (N=33).
func FuzzSplitMatchesStrided(f *testing.F) {
	f.Add(int64(1), 1.15, uint8(1))
	f.Add(int64(2), 1.0, uint8(2))
	f.Add(int64(3), 1.6, uint8(3))
	pool := sharedPool()
	f.Fuzz(func(t *testing.T, seed int64, omegaRaw float64, sweepsRaw uint8) {
		omega := omegaRaw
		if math.IsNaN(omega) || math.IsInf(omega, 0) {
			omega = 1.15
		}
		omega = 0.05 + math.Mod(math.Abs(omega), 1.9) // (0, 2): SOR-stable
		sweeps := 1 + int(sweepsRaw%3)
		rng := rand.New(rand.NewSource(seed))

		const n3 = 33
		op3 := Poisson3D()
		x30, b3 := randomState3(n3, rng)
		h3 := 1.0 / float64(n3-1)
		xo3 := x30.Clone()
		for s := 0; s < sweeps; s++ {
			op3.SORSweepRB(nil, xo3, b3, h3, omega)
		}
		xs3 := x30.Clone()
		sorSweepsSplit(pool, xs3, b3, h3, omega, sweeps)
		assertBitIdentical(t, xo3, xs3, "3D split iterate")
		xss3 := x30.Clone()
		sorSweepsSplit(nil, xss3, b3, h3, omega, sweeps)
		assertBitIdentical(t, xo3, xss3, "3D split serial (wavefront) iterate")
	})
}
