package goldens

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/grid"
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

const tablesPath = "testdata/tables.sha256"

// TestBenchmarkTablesPinned: each benchmark table, as Save writes it, has
// the SHA-256 recorded in testdata/tables.sha256, in sha256sum's format — so
// a tuner change that means to move no cell shows it byte for byte, and
// `mgtune -machine intel-harpertown -seed 20090101 -workers 0 -size N
// [-family F]` output checks against the file with `sha256sum -c`. A change
// that means to move cells reruns `go test ./internal/goldens -update`, which
// rewrites this file with goldens.json, and lists the moved tables.
func TestBenchmarkTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes the six benchmark tables")
	}
	got := make(map[string]string, len(benchTables))
	var mu sync.Mutex
	t.Run("tune", func(t *testing.T) {
		for _, bt := range benchTables {
			name := fmt.Sprintf("%s-%d.json", bt.family, bt.n)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				tn, err := core.New(core.Config{MaxLevel: grid.Level(bt.n), Family: bt.family, Seed: 20090101, Coster: arch.Harpertown()})
				if err != nil {
					t.Fatal(err)
				}
				tuned, err := tn.Tune()
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), name)
				if err := tuned.Save(path); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				mu.Lock()
				got[name] = hex.EncodeToString(sum[:])
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var lines []string
		for _, name := range names {
			lines = append(lines, got[name]+"  "+name)
		}
		if err := os.WriteFile(tablesPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d table hashes to %s", len(lines), tablesPath)
		return
	}
	data, err := os.ReadFile(tablesPath)
	if err != nil {
		t.Fatalf("read table hashes (run with -update to create them): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", tablesPath, line)
		}
		want[name] = sum
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: tuned table hashes to %s, recorded %s (run -update if the change is intended)", name, sum, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d tables, the test tunes %d", tablesPath, len(want), len(got))
	}
}
