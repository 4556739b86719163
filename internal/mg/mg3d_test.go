package mg

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// random3DProblem returns a random 3D state (boundary + zero interior) and
// right-hand side at side n.
func random3DProblem(n int, seed int64) (x, b *grid.Grid) {
	rng := rand.New(rand.NewSource(seed))
	x, b = grid.New3(n), grid.New3(n)
	bd := b.Data()
	for i := range bd {
		bd[i] = rng.Float64()*2 - 1
	}
	grid.FillBoundaryRandom(x, grid.Unbiased, rng)
	xd := x.Data()
	for i := range xd {
		xd[i] /= 1 << 32
	}
	return x, b
}

func newWS3(pool *sched.Pool) *Workspace {
	ws := NewWorkspace(pool, stencil.Poisson3D())
	return ws
}

// TestRefVCycle3DConverges: the reference V-cycle — running entirely
// through the dimension-generic smoothing, residual, transfer, and direct
// layers — must contract a 3D Poisson problem at the textbook multigrid
// rate (≥5× residual reduction per cycle, far beyond SOR).
func TestRefVCycle3DConverges(t *testing.T) {
	for _, n := range []int{17, 33} {
		ws := newWS3(nil)
		x, b := random3DProblem(n, int64(n))
		h := 1.0 / float64(n-1)
		op := ws.Operator()
		r0 := stencil.OpResidualNorm(op, nil, x, b, h)
		cycles := 0
		for ; cycles < 30; cycles++ {
			ws.RefVCycle(x, b, nil)
			if stencil.OpResidualNorm(op, nil, x, b, h) <= 1e-10*r0 {
				break
			}
		}
		if cycles >= 30 {
			t.Fatalf("N=%d: V-cycle did not reach 1e-10 relative residual in 30 cycles (%v of %v)",
				n, stencil.OpResidualNorm(op, nil, x, b, h), r0)
		}
		perCycle := math.Pow(r0/stencil.OpResidualNorm(op, nil, x, b, h), 1/float64(cycles+1))
		if perCycle < 5 {
			t.Fatalf("N=%d: contraction %.2f×/cycle is below multigrid rate", n, perCycle)
		}
	}
}

// TestRefFullMG3D: one full-multigrid pass lands within a few V-cycles of
// the converged answer.
func TestRefFullMG3D(t *testing.T) {
	n := 33
	ws := newWS3(nil)
	x, b := random3DProblem(n, 7)
	h := 1.0 / float64(n-1)
	r0 := stencil.OpResidualNorm(ws.Operator(), nil, x, b, h)
	ws.RefFullMG(x, b, nil)
	if r := stencil.OpResidualNorm(ws.Operator(), nil, x, b, h); r > 0.1*r0 {
		t.Fatalf("FMG pass left residual %v of initial %v", r, r0)
	}
}

// TestVCycle3DParallelBitIdentical: a pooled 3D V-cycle must produce
// exactly the bits of the serial cycle — the contract that makes parallel
// serving deterministic. Runs multiple concurrent parallel solves to give
// the race detector something to chew on.
func TestVCycle3DParallelBitIdentical(t *testing.T) {
	n := 33
	pool := sched.NewPool(4)
	defer pool.Close()

	serial := newWS3(nil)
	xs, b := random3DProblem(n, 11)
	for c := 0; c < 3; c++ {
		serial.RefVCycle(xs, b, nil)
	}

	const clients = 4
	var wg sync.WaitGroup
	results := make([]*grid.Grid, clients)
	par := newWS3(pool)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xp, bp := random3DProblem(n, 11)
			for i := 0; i < 3; i++ {
				par.RefVCycle(xp, bp, nil)
			}
			results[c] = xp
		}(c)
	}
	wg.Wait()
	for c, xp := range results {
		sd, pd := xs.Data(), xp.Data()
		for i := range sd {
			if math.Float64bits(sd[i]) != math.Float64bits(pd[i]) {
				t.Fatalf("client %d: parallel V-cycle differs from serial at %d: %v vs %v", c, i, sd[i], pd[i])
			}
		}
	}
}

// TestWorkspaceArena3D: scratch checkout shapes buffers to the operator's
// dimension.
func TestWorkspaceArena3D(t *testing.T) {
	ws := newWS3(nil)
	bufs := ws.checkout(17)
	defer ws.release(bufs)
	if bufs.r.Dim() != 3 || bufs.cb.Dim() != 3 || bufs.cb.N() != 9 {
		t.Fatalf("3D workspace handed out %dD scratch (coarse N=%d)", bufs.r.Dim(), bufs.cb.N())
	}
}
