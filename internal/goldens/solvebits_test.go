package goldens

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/stencil"
)

// bitsFamilies are the small tunes whose solves TestSolveBitsPinned holds
// bit for bit: every 2D family the tables serve, the stiff varcoef contrast
// and the 3D operator, each at sizes that tune in well under a second.
var bitsFamilies = []struct {
	name   string
	family stencil.Family
	eps    float64
	maxN   int
}{
	{"poisson", stencil.FamilyPoisson, 0, 65},
	{"aniso-0.1", stencil.FamilyAnisotropic, 0.1, 65},
	{"varcoef-2", stencil.FamilyVarCoef, 2, 65},
	{"varcoef-12", stencil.FamilyVarCoef, 12, 33},
	{"poisson3d", stencil.FamilyPoisson3D, 0, 17},
}

const solveBitsPath = "testdata/solve_bits.sha256"

// TestSolveBitsPinned: the output bits of every tuned solve — V and full at
// every size × accuracy of a small intel-harpertown tune — and of one pass
// of each reference cycle, hashed with the solve's trace totals, match
// testdata/solve_bits.sha256 (sha256sum's layout, one line per solve). A
// rewrite of the cycle layer that means to move no bit and no count passes
// it untouched; a change that means to move them reruns `go test
// ./internal/goldens -run TestSolveBitsPinned -update`.
func TestSolveBitsPinned(t *testing.T) {
	got := map[string]string{}
	var mu sync.Mutex
	t.Run("solve", func(t *testing.T) {
		for _, f := range bitsFamilies {
			t.Run(f.name, func(t *testing.T) {
				t.Parallel()
				sums := solveBits(t, f.family, f.eps, f.maxN)
				mu.Lock()
				defer mu.Unlock()
				for k, v := range sums {
					got[f.name+"/"+k] = v
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *update {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(solveBitsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d solve hashes to %s", len(names), solveBitsPath)
		return
	}
	data, err := os.ReadFile(solveBitsPath)
	if err != nil {
		t.Fatalf("read solve hashes (run with -update to create them): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", solveBitsPath, line)
		}
		want[name] = sum
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: solve hashes to %s, recorded %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d solves, the test runs %d", solveBitsPath, len(want), len(got))
	}
}

// solveBits tunes one family to maxN and returns the hash of each solve,
// keyed by size and solve.
func solveBits(t *testing.T, f stencil.Family, eps float64, maxN int) map[string]string {
	tn, err := core.New(core.Config{MaxLevel: grid.Level(maxN), Family: f, Eps: eps, Seed: 20090101, Coster: arch.Harpertown()})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	op, err := tuned.OperatorValue()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for level := 2; level <= grid.Level(maxN); level++ {
		n := grid.SizeOfLevel(level)
		p := problem.RandomOp(n, grid.Unbiased, rand.New(rand.NewSource(int64(level))), op.At(n))
		run := func(key string, solve func(ex *mg.Executor, x *grid.Grid)) {
			var tr mg.OpTrace
			ex := &mg.Executor{WS: mg.NewWorkspace(nil, op), V: tuned.V, F: tuned.F, Rec: &tr}
			x := p.NewState()
			solve(ex, x)
			out[fmt.Sprintf("n%d/%s", n, key)] = hashSolve(x, &tr)
		}
		for i, acc := range tuned.V.Acc {
			accKey := fmt.Sprintf("acc1e%d", int(math.Round(math.Log10(acc))))
			run("V/"+accKey, func(ex *mg.Executor, x *grid.Grid) { ex.SolveV(x, p.B, i) })
			run("full/"+accKey, func(ex *mg.Executor, x *grid.Grid) { ex.SolveFull(x, p.B, i) })
		}
		run("RefVCycle", func(ex *mg.Executor, x *grid.Grid) { ex.WS.RefVCycle(x, p.B, ex.Rec) })
		run("RefFullMG", func(ex *mg.Executor, x *grid.Grid) { ex.WS.RefFullMG(x, p.B, ex.Rec) })
	}
	return out
}

// hashSolve hashes x's bits followed by the trace's total of every event
// kind.
func hashSolve(x *grid.Grid, tr *mg.OpTrace) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, k := range []mg.EventKind{mg.EvRelax, mg.EvResidual, mg.EvRestrict, mg.EvInterp, mg.EvDirect, mg.EvIterSolve} {
		binary.LittleEndian.PutUint64(buf[:], uint64(tr.Total(k)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
