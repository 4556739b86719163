package mg

import (
	"math"
	"math/rand"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// TestSnapshotHoldsExactBits: a snapshot is the caller's state bit for bit
// (NaN payloads and −0 included — it is a copy, not arithmetic), however
// dirty the arena grid it lands in, and it is a scratch checkout like any
// other: one outstanding set until released.
func TestSnapshotHoldsExactBits(t *testing.T) {
	ws := NewWorkspace(nil, stencil.Poisson())
	for _, n := range []int{3, 5, 17} {
		x := grid.New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range x.Data() {
			x.Data()[i] = math.Float64frombits(rng.Uint64())
		}
		x.Data()[0] = math.Copysign(0, -1)

		// Dirty the arena entry the snapshot will reuse.
		dirty := ws.checkout(n)
		dirty.r.Fill(7)
		ws.release(dirty)

		snap := ws.Snapshot(x)
		if got := ws.ScratchOutstanding(); got != 1 {
			t.Fatalf("n=%d: %d scratch sets outstanding while a snapshot is held, want 1", n, got)
		}
		for i, v := range snap.Grid().Data() {
			if math.Float64bits(v) != math.Float64bits(x.Data()[i]) {
				t.Fatalf("n=%d: snapshot differs from the state at %d", n, i)
			}
		}
		ws.ReleaseSnapshot(snap)
		if got := ws.ScratchOutstanding(); got != 0 {
			t.Fatalf("n=%d: %d scratch sets outstanding after release, want 0", n, got)
		}
	}
}

// TestSnapshotArenasArePerWorkspace: a 2D and a 3D workspace in one process,
// snapshotting states of the same side, each draw from their own arena — a
// grid released by one is never handed out by the other, and a state of the
// wrong dimension is refused before anything is checked out.
func TestSnapshotArenasArePerWorkspace(t *testing.T) {
	ws2, ws3 := NewWorkspace(nil, stencil.Poisson()), newWS3(nil)
	x2, x3 := grid.New(9), grid.New3(9)
	seen := map[*grid.Grid]int{}
	for round := 0; round < 4; round++ {
		s2, s3 := ws2.Snapshot(x2), ws3.Snapshot(x3)
		for g, dim := range map[*grid.Grid]int{s2.Grid(): 2, s3.Grid(): 3} {
			if g.Dim() != dim {
				t.Fatalf("round %d: %dD workspace snapshotted into a %dD grid", round, dim, g.Dim())
			}
			if owner, ok := seen[g]; ok && owner != dim {
				t.Fatalf("round %d: a %dD workspace's snapshot grid came back from the %dD workspace", round, owner, dim)
			}
			seen[g] = dim
		}
		ws2.ReleaseSnapshot(s2)
		ws3.ReleaseSnapshot(s3)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("2D workspace snapshotted a 3D state")
			}
		}()
		ws2.Snapshot(x3)
	}()
	if got := ws2.ScratchOutstanding(); got != 0 {
		t.Fatalf("refused snapshot left %d scratch sets outstanding", got)
	}
}
