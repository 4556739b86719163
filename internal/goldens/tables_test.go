package goldens

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/stencil"
)

// benchTables are the tables the repo benchmark tunes in set-up (bench/spec.go:
// intel-harpertown, seed 20090101, default options, no worker pool), named
// as family-N.json.
var benchTables = []struct {
	family stencil.Family
	n      int
}{
	{stencil.FamilyPoisson, 513},
	{stencil.FamilyPoisson, 257},
	{stencil.FamilyPoisson, 33},
	{stencil.FamilyVarCoef, 257},
	{stencil.FamilyPoisson3D, 33},
	{stencil.FamilyPoisson3D, 17},
}

const tablesPath = "testdata/tables.txt"

// TestBenchmarkTablesPinned: every cell of each benchmark table, as text.
// testdata/tables.txt holds one line per table, level and algorithm (V or
// full), in the tuner's progress form, each cell followed by its model
// price: the Coster's Cost of the trace of that cell's solve. The choices
// of a line are those `mgtune -machine intel-harpertown -seed 20090101
// -workers 0 -size N [-family F]` prints on stderr for the level ("level L
// (N=n): V …; full …"). A tuner change that means to move no cell
// passes untouched; one that moves a cell fails naming the table, level,
// algorithm, accuracy and the cell's old → new choice and price. A change
// that means to move cells reruns `go test ./internal/goldens -update`,
// which rewrites this file with goldens.json, and lists the moved cells.
func TestBenchmarkTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes the six benchmark tables")
	}
	got := make(map[string][]string, len(benchTables))
	acc := map[string][]float64{} // the accuracy targets of each line
	var mu sync.Mutex
	t.Run("tune", func(t *testing.T) {
		for _, bt := range benchTables {
			name := fmt.Sprintf("%s-%d", bt.family, bt.n)
			t.Run(name+".json", func(t *testing.T) {
				t.Parallel()
				coster := arch.Harpertown()
				tn, err := core.New(core.Config{MaxLevel: grid.Level(bt.n), Family: bt.family, Seed: 20090101, Coster: coster})
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
				ws := mg.NewWorkspace(nil, op)
				var lines []string
				for level := 2; level <= tuned.V.MaxLevel(); level++ {
					n := grid.SizeOfLevel(level)
					price := func(solve func(ex *mg.Executor, x, b *grid.Grid)) string {
						var tr mg.OpTrace
						solve(&mg.Executor{WS: ws, V: tuned.V, F: tuned.F, Rec: &tr}, grid.NewDim(op.Dim(), n), grid.NewDim(op.Dim(), n))
						return fmt.Sprintf("%.6g", coster.Cost(&tr, 0))
					}
					v, full := make([]string, len(tuned.V.Acc)), make([]string, len(tuned.V.Acc))
					for i := range tuned.V.Acc {
						v[i] = tuned.V.Plan(level, i).String() + " " + price(func(ex *mg.Executor, x, b *grid.Grid) { ex.SolveV(x, b, i) })
						full[i] = tuned.F.Plan(level, i).String() + " " + price(func(ex *mg.Executor, x, b *grid.Grid) { ex.SolveFull(x, b, i) })
					}
					head := fmt.Sprintf("%s level %d (N=%d)", name, level, n)
					lines = append(lines, head+" V: "+strings.Join(v, ", "), head+" full: "+strings.Join(full, ", "))
				}
				mu.Lock()
				got[name] = lines
				for _, line := range lines {
					key, _, _ := strings.Cut(line, ": ")
					acc[key] = tuned.V.Acc
				}
				mu.Unlock()
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
	var lines []string
	for _, name := range names {
		lines = append(lines, got[name]...)
	}
	if *update {
		if err := os.WriteFile(tablesPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d table lines to %s", len(lines), tablesPath)
		return
	}
	data, err := os.ReadFile(tablesPath)
	if err != nil {
		t.Fatalf("read tables (run with -update to create them): %v", err)
	}
	want := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, cells, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("%s: malformed line %q", tablesPath, line)
		}
		want[key] = strings.Split(cells, ", ")
	}
	for _, line := range lines {
		key, cells, _ := strings.Cut(line, ": ")
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no recorded line (run -update if the change is intended)", key)
			continue
		}
		delete(want, key)
		g := strings.Split(cells, ", ")
		if len(g) != len(w) {
			t.Errorf("%s: %d cells, recorded %d", key, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s, accuracy %g: %s → %s (run -update if the change is intended)", key, acc[key][i], w[i], g[i])
			}
		}
	}
	for key := range want {
		t.Errorf("%s: recorded, but no benchmark table has it", key)
	}
}
