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
	"pbmg/internal/transfer"
)

// Cycle-level lockdown of the fused kernels against an unfused oracle built
// here from the separate passes: SOR sweep, residual into a fine grid,
// full-weighting restriction, interpolation into a fine grid added to x. The
// production cycles perform the same sweeps bit for bit and the same
// restriction up to floating-point association (the fused restriction
// applies the full weighting separably in 3D), so whole cycles must agree
// to rounding error — and the fused path must be bit-identical to itself
// across worker counts.

// oracleVCycle is MULTIGRID-V-SIMPLE as separate serial passes; only the
// N = 3 direct solve goes through ws.
func oracleVCycle(ws *Workspace, x, b *grid.Grid) {
	n := x.N()
	if n == 3 {
		ws.SolveDirect(x, b, nil)
		return
	}
	op, h := ws.Op.At(n), 1.0/float64(n-1)
	stencil.OpSORSweepRB(op, nil, x, b, h, op.OmegaSmooth())
	cx, cb := oracleRestrictResidual(ws, x, b)
	oracleVCycle(ws, cx, cb)
	oracleCorrect(x, cx)
	stencil.OpSORSweepRB(op, nil, x, b, h, op.OmegaSmooth())
}

// oracleFullMG is the reference full multigrid as separate serial passes:
// ESTIMATE by recursion on the restricted residual, then one V-cycle.
func oracleFullMG(ws *Workspace, x, b *grid.Grid) {
	if x.N() == 3 {
		ws.SolveDirect(x, b, nil)
		return
	}
	cx, cb := oracleRestrictResidual(ws, x, b)
	oracleFullMG(ws, cx, cb)
	oracleCorrect(x, cx)
	oracleVCycle(ws, x, b)
}

// oracleRestrictResidual returns a zero coarse state and the restriction of
// the materialized fine residual b − T·x.
func oracleRestrictResidual(ws *Workspace, x, b *grid.Grid) (cx, cb *grid.Grid) {
	n, nc := x.N(), grid.Coarsen(x.N())
	r := grid.NewDim(x.Dim(), n)
	stencil.OpResidual(ws.Op.At(n), nil, r, x, b, 1.0/float64(n-1))
	cb = grid.NewDim(x.Dim(), nc)
	transfer.Restrict(nil, cb, r)
	return grid.NewDim(x.Dim(), nc), cb
}

// oracleCorrect adds the materialized interpolation of cx to x's interior.
func oracleCorrect(x, cx *grid.Grid) {
	e := grid.NewDim(x.Dim(), x.N())
	transfer.Interpolate(nil, e, cx)
	n := x.N()
	for i := 1; i < n-1; i++ {
		if x.Dim() == 2 {
			xr, er := x.Row(i), e.Row(i)
			for j := 1; j < n-1; j++ {
				xr[j] += er[j]
			}
			continue
		}
		for j := 1; j < n-1; j++ {
			xr, er := x.Row3(i, j), e.Row3(i, j)
			for k := 1; k < n-1; k++ {
				xr[k] += er[k]
			}
		}
	}
}

func fusedCycleOps(t *testing.T) []struct {
	name string
	op   *stencil.Operator
	n    int
} {
	t.Helper()
	varcoef, err := stencil.NewOperator(stencil.FamilyVarCoef, 2, 65)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		op   *stencil.Operator
		n    int
	}{
		{"poisson-65", stencil.Poisson(), 65},
		{"aniso-0.01-65", stencil.Anisotropic(0.01), 65},
		{"varcoef-2-65", varcoef, 65},
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

				ws := NewWorkspace(pool, tc.op)
				fused, unfused := p.NewState(), p.NewState()
				for c := 0; c < 3; c++ {
					ws.RefVCycle(fused, p.B, nil)
					oracleVCycle(ws, unfused, p.B)
				}
				assertGridsClose(t, unfused, fused, "V-cycle fused vs unfused")
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
				ws := NewWorkspace(pl, tc.op)
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

// TestFullMGFusedMatchesUnfused locks the ESTIMATE step — the fused
// residual restriction and interpolate-add — the same way, through the
// full-multigrid reference pass.
func TestFullMGFusedMatchesUnfused(t *testing.T) {
	for _, tc := range fusedCycleOps(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			p := problem.RandomOp(tc.n, grid.Unbiased, rng, tc.op)
			ws := NewWorkspace(nil, tc.op)
			fused, unfused := p.NewState(), p.NewState()
			ws.RefFullMG(fused, p.B, nil)
			oracleFullMG(ws, unfused, p.B)
			assertGridsClose(t, unfused, fused, "FMG fused vs unfused")
		})
	}
}
