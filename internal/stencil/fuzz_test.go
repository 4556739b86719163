package stencil

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// Property/fuzz tests for the operator-family kernels. Two invariants hold
// for every family and every coefficient field:
//
//  1. Parallel sweeps are bit-identical to serial sweeps: red-black coloring
//     makes all updates within a parallel phase independent, so worker count and scheduling must not change a
//     single bit of the result.
//  2. OpResidual and the apply oracle (oracle_test.go) agree:
//     residual(x, b) == b − A·x up to floating-point association error, for
//     any x, b, and coefficient field.

// fuzzPool is shared by all fuzz iterations in a worker process; fuzzing
// forks workers, so a per-target pool would leak one per run otherwise.
var (
	fuzzPoolOnce sync.Once
	fuzzPool     *sched.Pool
)

func sharedPool() *sched.Pool {
	fuzzPoolOnce.Do(func() { fuzzPool = sched.NewPool(4) })
	return fuzzPool
}

// fuzzOperator derives an operator family instance of size n from fuzz
// inputs: famSel picks the family, epsRaw (any float) is folded into a
// positive, finite parameter, and seed drives the coefficient field.
func fuzzOperator(n int, famSel uint8, epsRaw float64, seed int64) *Operator {
	eps := epsRaw
	if math.IsNaN(eps) || math.IsInf(eps, 0) {
		eps = 1
	}
	eps = math.Abs(eps)
	eps = 0.01 + math.Mod(eps, 100) // positive, finite, spans 4 decades
	switch famSel % 3 {
	case 0:
		return Poisson()
	case 1:
		return Anisotropic(eps)
	default:
		rng := rand.New(rand.NewSource(seed))
		return VarCoefOperator(randomField(n, math.Min(eps, 4), rng), 0)
	}
}

// FuzzSweepParallelMatchesSerial checks invariant 1 on SOR and Residual at a grid size the pool splits.
func FuzzSweepParallelMatchesSerial(f *testing.F) {
	f.Add(int64(1), uint8(0), 1.0)
	f.Add(int64(2), uint8(1), 0.01)
	f.Add(int64(3), uint8(2), 2.0)
	f.Add(int64(4), uint8(1), 77.7)
	pool := sharedPool()
	const n = 129 // the pool splits a grid of this side
	f.Fuzz(func(t *testing.T, seed int64, famSel uint8, epsRaw float64) {
		op := fuzzOperator(n, famSel, epsRaw, seed)
		rng := rand.New(rand.NewSource(seed))
		x0, b := randomState(n, rng)
		h := 1.0 / float64(n-1)

		xs, xp := x0.Clone(), x0.Clone()
		for s := 0; s < 2; s++ {
			OpSORSweepRB(op, nil, xs, b, h, 1.2)
			OpSORSweepRB(op, pool, xp, b, h, 1.2)
		}
		assertBitIdentical(t, xs, xp, "SOR")

		rs, rp := grid.New(n), grid.New(n)
		OpResidual(op, nil, rs, xs, b, h)
		OpResidual(op, pool, rp, xs, b, h)
		assertBitIdentical(t, rs, rp, "Residual")
	})
}

// FuzzApplyResidualConsistency checks invariant 2: the residual kernel and
// the independently written apply oracle implement the same operator.
func FuzzApplyResidualConsistency(f *testing.F) {
	f.Add(int64(1), uint8(0), 1.0)
	f.Add(int64(2), uint8(1), 0.01)
	f.Add(int64(3), uint8(2), 2.0)
	f.Add(int64(5), uint8(2), 0.5)
	const n = 17
	f.Fuzz(func(t *testing.T, seed int64, famSel uint8, epsRaw float64) {
		op := fuzzOperator(n, famSel, epsRaw, seed)
		rng := rand.New(rand.NewSource(seed))
		x, b := randomState(n, rng)
		h := 1.0 / float64(n-1)

		r := grid.New(n)
		OpResidual(op, nil, r, x, b, h)
		y := grid.New(n)
		refApply(op, y, x, h)

		// r must equal b − A·x. The kernels associate differently, so allow
		// relative rounding at the magnitude of the operator application.
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				want := b.At(i, j) - y.At(i, j)
				got := r.At(i, j)
				scale := math.Max(1, math.Abs(b.At(i, j))+math.Abs(y.At(i, j)))
				if math.Abs(got-want) > 1e-10*scale {
					t.Fatalf("%v: residual(%d,%d) = %v, want b−A·x = %v (scale %g)",
						op, i, j, got, want, scale)
				}
			}
		}
		// And the norm helper must match the residual grid it summarizes.
		var sum float64
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				sum += r.At(i, j) * r.At(i, j)
			}
		}
		if norm := OpResidualNorm(op, nil, x, b, h); math.Abs(norm-math.Sqrt(sum)) > 1e-9*math.Max(1, norm) {
			t.Fatalf("%v: ResidualNorm %v != ‖residual grid‖ %v", op, norm, math.Sqrt(sum))
		}
	})
}

func assertBitIdentical(t *testing.T, a, b *grid.Grid, what string) {
	t.Helper()
	ad, bd := a.Data(), b.Data()
	for k := range ad {
		if math.Float64bits(ad[k]) != math.Float64bits(bd[k]) {
			t.Fatalf("%s: serial and parallel differ at %d: %x vs %x",
				what, k, math.Float64bits(ad[k]), math.Float64bits(bd[k]))
		}
	}
}
