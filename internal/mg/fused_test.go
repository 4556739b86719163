package mg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/problem"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// Cycle-level lockdown of the fused kernels: a workspace with noFuse set
// runs the original separate smooth/residual/restriction passes. The fused
// default performs the same sweeps bit for bit and the same restriction up
// to floating-point association (the fused restriction applies the full
// weighting separably), so whole cycles must agree to rounding error — and
// the fused path must be bit-identical to itself across worker counts.

func fusedCycleOps(t *testing.T) []struct {
	name string
	op   *stencil.Operator
	n    int
} {
	t.Helper()
	return []struct {
		name string
		op   *stencil.Operator
		n    int
	}{
		{"poisson-65", stencil.Poisson(), 65},
		{"aniso-0.01-65", stencil.Anisotropic(0.01), 65},
		{"varcoef-2-65", stencil.VarCoefOperator(stencil.CoefField(65, 2), 2), 65},
		{"poisson3d-17", stencil.Poisson3D(), 17},
	}
}

// assertGridsClose fails unless a and b agree to a tiny relative tolerance
// (association-level FP drift amplified through a few cycles).
func assertGridsClose(t *testing.T, a, b *grid.Grid, what string) {
	t.Helper()
	scale := math.Max(1, grid.MaxAbsInterior(a))
	ad, bd := a.Data(), b.Data()
	for k := range ad {
		if d := math.Abs(ad[k] - bd[k]); !(d <= 1e-10*scale) {
			t.Fatalf("%s: grids differ at %d by %g (scale %g): %v vs %v",
				what, k, d, scale, ad[k], bd[k])
		}
	}
}

func TestVCycleFusedMatchesUnfused(t *testing.T) {
	for _, tc := range fusedCycleOps(t) {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers-%d", tc.name, workers), func(t *testing.T) {
				var pool *sched.Pool
				if workers > 1 {
					pool = sched.NewPool(workers)
					defer pool.Close()
				}
				rng := rand.New(rand.NewSource(99))
				p := problem.RandomOp(tc.n, grid.Unbiased, rng, tc.op)

				run := func(noFuse bool) *grid.Grid {
					ws := NewWorkspace(pool)
					ws.Op = tc.op
					ws.noFuse = noFuse
					x := p.NewState()
					for c := 0; c < 3; c++ {
						ws.RefVCycle(x, p.B, nil)
					}
					return x
				}
				assertGridsClose(t, run(true), run(false), "V-cycle fused vs unfused")
			})
		}
	}
}

// TestVCycleFusedDeterministicAcrossPools locks the determinism contract at
// cycle granularity: the fused path must produce bit-identical iterates for
// a nil pool and an 8-worker pool.
func TestVCycleFusedDeterministicAcrossPools(t *testing.T) {
	for _, tc := range fusedCycleOps(t) {
		t.Run(tc.name, func(t *testing.T) {
			pool := sched.NewPool(8)
			defer pool.Close()
			rng := rand.New(rand.NewSource(123))
			p := problem.RandomOp(tc.n, grid.Unbiased, rng, tc.op)
			run := func(pl *sched.Pool) *grid.Grid {
				ws := NewWorkspace(pl)
				ws.Op = tc.op
				x := p.NewState()
				for c := 0; c < 3; c++ {
					ws.RefVCycle(x, p.B, nil)
				}
				return x
			}
			serial, pooled := run(nil), run(pool)
			sd, pd := serial.Data(), pooled.Data()
			for k := range sd {
				if math.Float64bits(sd[k]) != math.Float64bits(pd[k]) {
					t.Fatalf("fused V-cycle not pool-deterministic at %d: %v vs %v", k, sd[k], pd[k])
				}
			}
		})
	}
}

// TestFullMGFusedMatchesUnfused locks the Estimate/RefFullMG downstroke the
// same way, through the full-multigrid reference pass.
func TestFullMGFusedMatchesUnfused(t *testing.T) {
	for _, tc := range fusedCycleOps(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			p := problem.RandomOp(tc.n, grid.Unbiased, rng, tc.op)
			run := func(noFuse bool) *grid.Grid {
				ws := NewWorkspace(nil)
				ws.Op = tc.op
				ws.noFuse = noFuse
				x := p.NewState()
				ws.RefFullMG(x, p.B, nil)
				return x
			}
			assertGridsClose(t, run(true), run(false), "FMG fused vs unfused")
		})
	}
}

// TestRecurseWithNormMatchesSeparateProbe checks the norm-returning recurse:
// the iterate must be bit-identical to the plain recurse, and the fused norm
// must match a separate residual-norm traversal to rounding error.
func TestRecurseWithNormMatchesSeparateProbe(t *testing.T) {
	for _, tc := range fusedCycleOps(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			p := problem.RandomOp(tc.n, grid.Unbiased, rng, tc.op)
			h := 1.0 / float64(tc.n-1)

			ws := NewWorkspace(nil)
			ws.Op = tc.op
			coarse := func(cx, cb *grid.Grid) { ws.RefVCycle(cx, cb, nil) }

			xo := p.NewState()
			ws.RecurseWith(xo, p.B, nil, coarse)
			want := stencil.OpResidualNorm(tc.op.At(tc.n), nil, xo, p.B, h)

			xf := p.NewState()
			norm := ws.RecurseWithNorm(xf, p.B, nil, coarse)
			fd, od := xf.Data(), xo.Data()
			for k := range fd {
				if math.Float64bits(fd[k]) != math.Float64bits(od[k]) {
					t.Fatalf("norm-returning recurse diverges at %d", k)
				}
			}
			if d := math.Abs(norm - want); !(d <= 1e-12*math.Max(1, want)) {
				t.Fatalf("fused norm %v, separate probe %v (diff %g)", norm, want, d)
			}

			// The Jacobi ablation takes the fallback path (separate probe)
			// and must agree with itself too.
			wsj := NewWorkspace(nil)
			wsj.Op = tc.op
			wsj.Smoother = SmootherJacobi
			coarseJ := func(cx, cb *grid.Grid) { wsj.RefVCycle(cx, cb, nil) }
			xj := p.NewState()
			normJ := wsj.RecurseWithNorm(xj, p.B, nil, coarseJ)
			wantJ := stencil.OpResidualNorm(tc.op.At(tc.n), nil, xj, p.B, h)
			if math.Float64bits(normJ) != math.Float64bits(wantJ) {
				t.Fatalf("jacobi fallback norm %v != %v", normJ, wantJ)
			}
		})
	}
}
