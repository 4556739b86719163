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

// Equivalence suite for the fused single-pass kernels, run for every
// operator family × {2D, 3D} × {serial, 8-goroutine pool} against the
// unfused kernels, OpSORSweepRB and OpResidual (each pinned bit for bit to
// its point-by-point oracle in oracle_test.go). The contract under test:
//
//   - the iterate x after the downstroke is bit-identical to OpSORSweepRB
//     (the sweeps perform the same updates in the same order);
//   - the downstroke's residual grid is within 1e-12 of the scale of the
//     oracle's (black points derive theirs from the update delta, red points
//     from a gather of their neighbours' — algebraically exact
//     rearrangements), and bit-identical at the red points where the fix-up
//     re-evaluates them from final values with the oracle's expression;
//   - the restrictions match OpResidual followed by Restrict to
//     floating-point association (the 3D weights apply separably);
//   - norms are deterministic: a nil pool and any worker count produce
//     bit-identical sums (fixed per-row/per-plane chunking).

type fusedCase struct {
	name string
	mk   func(n int) *Operator
	ns   []int // one below and one above the parallel points gate
	dim  int
}

func fusedCases() []fusedCase {
	return []fusedCase{
		{"poisson", func(int) *Operator { return Poisson() }, []int{65, 129}, 2},
		{"aniso-0.01", func(int) *Operator { return Anisotropic(0.01) }, []int{65, 129}, 2},
		{"aniso-5", func(int) *Operator { return Anisotropic(5) }, []int{65, 129}, 2},
		{"varcoef-2", func(n int) *Operator { return VarCoefOperator(CoefField(n, 2), 2) }, []int{65, 129}, 2},
		{"poisson3d", func(int) *Operator { return Poisson3D() }, []int{17, 33}, 3},
	}
}

func randomStateDim(dim, n int, rng *rand.Rand) (x, b *grid.Grid) {
	if dim == 3 {
		return randomState3(n, rng)
	}
	return randomState(n, rng)
}

// forEachInterior visits every interior point of g (2D or 3D) with its
// red/black parity and value.
func forEachInterior(g *grid.Grid, visit func(idx int, red bool, v float64)) {
	n := g.N()
	if g.Dim() == 3 {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				row := g.Row3(i, j)
				for k := 1; k < n-1; k++ {
					visit((i*n+j)*n+k, (i+j+k)%2 == 0, row[k])
				}
			}
		}
		return
	}
	for i := 1; i < n-1; i++ {
		row := g.Row(i)
		for j := 1; j < n-1; j++ {
			visit(i*n+j, (i+j)%2 == 0, row[j])
		}
	}
}

// pools under test: the serial path and the issue's 8-goroutine pool.
func withPools(t *testing.T, fn func(t *testing.T, pool *sched.Pool)) {
	t.Run("serial", func(t *testing.T) { fn(t, nil) })
	t.Run("pool-8", func(t *testing.T) {
		pool := sched.NewPool(8)
		defer pool.Close()
		fn(t, pool)
	})
}

// nanLike returns a grid shaped like g holding only NaNs: the scratch the
// fused entry points are handed, so any entry they read before writing shows.
func nanLike(g *grid.Grid) *grid.Grid {
	s := grid.NewDim(g.Dim(), g.N())
	s.Fill(math.NaN())
	return s
}

// assertCoarseClose checks a fused restriction against the oracle chain:
// same 9/27-point weights under a different (separable) summation order, so
// agreement is to floating-point association, scaled by the residual data.
func assertCoarseClose(t *testing.T, oracle, fused *grid.Grid, scale float64, what string) {
	t.Helper()
	od, fd := oracle.Data(), fused.Data()
	for k := range od {
		if d := math.Abs(od[k] - fd[k]); !(d <= 1e-12*scale) {
			t.Fatalf("%s: coarse value differs at %d by %g (scale %g): %v vs %v",
				what, k, d, scale, od[k], fd[k])
		}
	}
}

// assertFixupResidual checks the residual grid a downstroke left in got
// against the oracle's: every interior entry within 1e-12 of scale,
// bit-identical at the red points wherever the fix-up evaluates them directly
// (varcoef, or |1−ω| below gatherMinOneMinusOmega), and a zero boundary.
func assertFixupResidual(t *testing.T, op *Operator, omega float64, oracle, got *grid.Grid, scale float64) {
	t.Helper()
	direct := op.family == FamilyVarCoef || math.Abs(1-omega) < gatherMinOneMinusOmega
	od, gd := oracle.Data(), got.Data()
	forEachInterior(oracle, func(idx int, red bool, _ float64) {
		if red && direct && math.Float64bits(od[idx]) != math.Float64bits(gd[idx]) {
			t.Fatalf("%v: red residual differs at %d: %v vs %v", op, idx, od[idx], gd[idx])
		}
		if d := math.Abs(od[idx] - gd[idx]); !(d <= 1e-12*scale) {
			t.Fatalf("%v: residual differs at %d by %g (scale %g): %v vs %v", op, idx, d, scale, od[idx], gd[idx])
		}
	})
	zeroed := got.Clone()
	zeroed.ZeroBoundary()
	assertBitIdentical(t, got, zeroed, "downstroke residual boundary")
}

// TestSmoothResidualMatchesOracle checks the residual grid left by
// OpSmoothResidualRestrict, the smooth+residual entry point with no scratch
// grid, against an unfused sweep followed by an unfused residual.
func TestSmoothResidualMatchesOracle(t *testing.T) {
	for _, tc := range fusedCases() {
		for _, n := range tc.ns {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				op := tc.mk(n)
				h := 1.0 / float64(n-1)
				omega := op.OmegaSmooth()
				rng := rand.New(rand.NewSource(int64(n)))
				x0, b := randomStateDim(tc.dim, n, rng)

				// Oracle: unfused sweep, then unfused residual (serial).
				xo := x0.Clone()
				OpSORSweepRB(op, nil, xo, b, h, omega)
				ro := grid.NewDim(tc.dim, n)
				OpResidual(op, nil, ro, xo, b, h)
				scale := math.Max(1, grid.MaxAbsInterior(ro))

				withPools(t, func(t *testing.T, pool *sched.Pool) {
					xf := x0.Clone()
					// Poison rf's interior to catch unwritten points.
					rf := nanLike(xf)
					OpSmoothResidualRestrict(op, pool, grid.NewDim(tc.dim, grid.Coarsen(n)), xf, b, rf, h, omega)
					assertBitIdentical(t, xo, xf, "SmoothResidual iterate")
					assertFixupResidual(t, op, omega, ro, rf, scale)
				})
			})
		}
	}
}

func TestResidualRestrictMatchesOracle(t *testing.T) {
	for _, tc := range fusedCases() {
		for _, n := range tc.ns {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				op := tc.mk(n)
				h := 1.0 / float64(n-1)
				rng := rand.New(rand.NewSource(int64(n) + 7))
				x, b := randomStateDim(tc.dim, n, rng)
				nc := grid.Coarsen(n)

				r := grid.NewDim(tc.dim, n)
				OpResidual(op, nil, r, x, b, h)
				scale := math.Max(1, grid.MaxAbsInterior(r))
				co := grid.NewDim(tc.dim, nc)
				transfer.Restrict(nil, co, r)

				var serial *grid.Grid
				withPools(t, func(t *testing.T, pool *sched.Pool) {
					cf := grid.NewDim(tc.dim, nc)
					cf.Fill(math.NaN())
					OpResidualRestrict(op, pool, cf, x, b, nanLike(x), nanLike(x), h)
					assertCoarseClose(t, co, cf, scale, "ResidualRestrict")
					// Chunking is fixed, so serial and pooled runs agree
					// bit for bit.
					if pool == nil {
						serial = cf
					} else {
						assertBitIdentical(t, serial, cf, "ResidualRestrict serial-vs-pool")
					}
				})
			})
		}
	}
}

func TestSmoothResidualRestrictMatchesOracle(t *testing.T) {
	for _, tc := range fusedCases() {
		for _, n := range tc.ns {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				op := tc.mk(n)
				h := 1.0 / float64(n-1)
				omega := op.OmegaSmooth()
				rng := rand.New(rand.NewSource(int64(n) + 43))
				x0, b := randomStateDim(tc.dim, n, rng)
				nc := grid.Coarsen(n)

				// Oracle downstroke: sweep, residual, restrict as separate
				// serial passes.
				xo := x0.Clone()
				OpSORSweepRB(op, nil, xo, b, h, omega)
				ro := grid.NewDim(tc.dim, n)
				OpResidual(op, nil, ro, xo, b, h)
				scale := math.Max(1, grid.MaxAbsInterior(ro))
				co := grid.NewDim(tc.dim, nc)
				transfer.Restrict(nil, co, ro)

				var serial *grid.Grid
				withPools(t, func(t *testing.T, pool *sched.Pool) {
					xf := x0.Clone()
					// Poisoned outputs catch unwritten points.
					rf, cf := nanLike(xf), grid.NewDim(tc.dim, nc)
					cf.Fill(math.NaN())
					OpDownstroke(op, pool, cf, xf, b, rf, nanLike(xf), h, omega)
					assertBitIdentical(t, xo, xf, "SmoothResidualRestrict iterate")
					assertFixupResidual(t, op, omega, ro, rf, scale)
					assertCoarseClose(t, co, cf, scale, "SmoothResidualRestrict")
					if pool == nil {
						serial = cf
					} else {
						assertBitIdentical(t, serial, cf, "SmoothResidualRestrict serial-vs-pool")
					}
				})
			})
		}
	}
}

// TestSweepWithNormMatchesOracle checks a smoothing sweep followed by the
// OpResidualNorm probe against the norm of the oracle's residual grid;
// serial and pooled runs agree bit for bit.
func TestSweepWithNormMatchesOracle(t *testing.T) {
	for _, tc := range fusedCases() {
		for _, n := range tc.ns {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				op := tc.mk(n)
				h := 1.0 / float64(n-1)
				omega := op.OmegaSmooth()
				rng := rand.New(rand.NewSource(int64(n) + 13))
				x0, b := randomStateDim(tc.dim, n, rng)

				xo := x0.Clone()
				refSweep(op, xo, b, h, omega)
				ro := grid.NewDim(tc.dim, n)
				refResidual(op, ro, xo, b, h)
				want := grid.L2Interior(ro)

				var serialNorm float64
				withPools(t, func(t *testing.T, pool *sched.Pool) {
					xf := x0.Clone()
					OpSORSweepRB(op, pool, xf, b, h, omega)
					norm := OpResidualNorm(op, pool, xf, b, h)
					assertBitIdentical(t, xo, xf, "sweep iterate")
					if d := math.Abs(norm - want); !(d <= 1e-12*math.Max(1, want)) {
						t.Fatalf("norm %v, oracle %v (diff %g)", norm, want, d)
					}
					// Fixed chunking: serial and pool sums are bit-identical.
					if pool == nil {
						serialNorm = norm
					} else if math.Float64bits(norm) != math.Float64bits(serialNorm) {
						t.Fatalf("pool norm %x differs from serial norm %x",
							math.Float64bits(norm), math.Float64bits(serialNorm))
					}
				})
			})
		}
	}
}

func TestResidualNormParallelDeterministic(t *testing.T) {
	for _, tc := range fusedCases() {
		for _, n := range tc.ns {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				op := tc.mk(n)
				h := 1.0 / float64(n-1)
				rng := rand.New(rand.NewSource(int64(n) + 29))
				x, b := randomStateDim(tc.dim, n, rng)

				serial := OpResidualNorm(op, nil, x, b, h)
				pool := sched.NewPool(8)
				defer pool.Close()
				par := OpResidualNorm(op, pool, x, b, h)
				if math.Float64bits(serial) != math.Float64bits(par) {
					t.Fatalf("parallel norm %x != serial norm %x",
						math.Float64bits(par), math.Float64bits(serial))
				}
				// And both agree with the residual grid they summarize.
				r := grid.NewDim(tc.dim, n)
				OpResidual(op, nil, r, x, b, h)
				want := grid.L2Interior(r)
				if d := math.Abs(serial - want); !(d <= 1e-12*math.Max(1, want)) {
					t.Fatalf("norm %v, ‖residual grid‖ %v (diff %g)", serial, want, d)
				}
				// ... and with the norm of the point-by-point oracle's grid,
				// summed in storage order by one accumulator.
				ro := grid.NewDim(tc.dim, n)
				refResidual(op, ro, x, b, h)
				oracle := grid.L2Interior(ro)
				if d := math.Abs(serial - oracle); !(d <= 1e-12*math.Max(1, oracle)) {
					t.Fatalf("norm %v, oracle %v (diff %g)", serial, oracle, d)
				}
			})
		}
	}
}

// FuzzFusedMatchesUnfused drives the fused 2D kernels against the oracle on
// random states, families, parameters, and relaxation weights.
func FuzzFusedMatchesUnfused(f *testing.F) {
	f.Add(int64(1), uint8(0), 1.0, 1.15)
	f.Add(int64(2), uint8(1), 0.01, 1.0)
	f.Add(int64(3), uint8(2), 2.0, 1.6)
	f.Add(int64(4), uint8(0), 1.0, 0.95) // ω = 1: the direct red fix-up
	pool := sharedPool()
	const n = 129
	f.Fuzz(func(t *testing.T, seed int64, famSel uint8, epsRaw, omegaRaw float64) {
		op := fuzzOperator(n, famSel, epsRaw, seed)
		omega := omegaRaw
		if math.IsNaN(omega) || math.IsInf(omega, 0) {
			omega = 1.15
		}
		omega = 0.05 + math.Mod(math.Abs(omega), 1.9) // (0, 2): SOR-stable
		rng := rand.New(rand.NewSource(seed))
		x0, b := randomState(n, rng)
		h := 1.0 / float64(n-1)

		xo := x0.Clone()
		OpSORSweepRB(op, nil, xo, b, h, omega)
		ro := grid.New(n)
		OpResidual(op, nil, ro, xo, b, h)
		scale := math.Max(1, grid.MaxAbsInterior(ro))

		nc := grid.Coarsen(n)
		co, cf := grid.New(nc), grid.New(nc)
		transfer.Restrict(nil, co, ro)
		OpResidualRestrict(op, pool, cf, xo, b, nanLike(xo), nanLike(xo), h)
		assertCoarseClose(t, co, cf, scale, "ResidualRestrict")

		xc := x0.Clone()
		rc, cc := grid.New(n), grid.New(nc)
		OpDownstroke(op, pool, cc, xc, b, rc, nanLike(xc), h, omega)
		assertBitIdentical(t, xo, xc, "SmoothResidualRestrict iterate")
		assertFixupResidual(t, op, omega, ro, rc, scale)
		assertCoarseClose(t, co, cc, scale, "SmoothResidualRestrict")
	})
}

// Fuzz3DFusedMatchesUnfused is the 3D counterpart at the acceptance size.
func Fuzz3DFusedMatchesUnfused(f *testing.F) {
	f.Add(int64(1), 1.15)
	f.Add(int64(2), 1.0)
	f.Add(int64(3), 1.6)
	f.Add(int64(4), 0.95) // ω = 1: the direct red fix-up
	pool := sharedPool()
	const n = 33
	f.Fuzz(func(t *testing.T, seed int64, omegaRaw float64) {
		op := Poisson3D()
		omega := omegaRaw
		if math.IsNaN(omega) || math.IsInf(omega, 0) {
			omega = 1.15
		}
		omega = 0.05 + math.Mod(math.Abs(omega), 1.9)
		rng := rand.New(rand.NewSource(seed))
		x0, b := randomState3(n, rng)
		h := 1.0 / float64(n-1)

		xo := x0.Clone()
		OpSORSweepRB(op, nil, xo, b, h, omega)
		ro := grid.NewDim(3, n)
		OpResidual(op, nil, ro, xo, b, h)
		scale := math.Max(1, grid.MaxAbsInterior(ro))

		nc := grid.Coarsen(n)
		co, cf := grid.NewDim(3, nc), grid.NewDim(3, nc)
		transfer.Restrict(nil, co, ro)
		OpResidualRestrict(op, pool, cf, xo, b, nanLike(xo), nanLike(xo), h)
		assertCoarseClose(t, co, cf, scale, "ResidualRestrict")

		xc := x0.Clone()
		rc, cc := grid.NewDim(3, n), grid.NewDim(3, nc)
		OpDownstroke(op, pool, cc, xc, b, rc, nanLike(xc), h, omega)
		assertBitIdentical(t, xo, xc, "SmoothResidualRestrict iterate")
		assertFixupResidual(t, op, omega, ro, rc, scale)
		assertCoarseClose(t, co, cc, scale, "SmoothResidualRestrict")
	})
}
