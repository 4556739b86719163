package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededViolationFailsVet builds the mglint binary and drives it the
// way CI does — through go vet -vettool — over a scratch module seeded
// with a boundedgo violation, proving the whole pipeline (unitchecker
// protocol, package scoping, nonzero exit) catches a regression; the
// repaired variant of the same module must pass.
func TestSeededViolationFailsVet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and vets a scratch module")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "mglint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mglint: %v\n%s", err, out)
	}

	writeModule := func(dir, serveSrc string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, "serve"), 0o755); err != nil {
			t.Fatal(err)
		}
		files := map[string]string{
			"go.mod":         "module scratch\n\ngo 1.24\n",
			"serve/serve.go": serveSrc,
		}
		for name, src := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	vet := func(dir string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	// Seeded violation: the PR 4 shape, a goroutine per ranged element.
	bad := filepath.Join(tmp, "bad")
	writeModule(bad, `package serve

func FanOut(reqs []int, handle func(int)) {
	for _, r := range reqs {
		go handle(r)
	}
}
`)
	out, err := vet(bad)
	if err == nil {
		t.Fatalf("go vet -vettool=mglint passed on a seeded boundedgo violation; output:\n%s", out)
	}
	if !strings.Contains(out, "boundedgo") {
		t.Fatalf("failure output does not name boundedgo:\n%s", out)
	}

	// The repaired module — a worker loop sized by an admission limit —
	// must pass with exit 0.
	good := filepath.Join(tmp, "good")
	writeModule(good, `package serve

func FanOut(workers int, reqs chan int, handle func(int)) {
	for i := 0; i < workers; i++ {
		go func() {
			for r := range reqs {
				handle(r)
			}
		}()
	}
}
`)
	if out, err := vet(good); err != nil {
		t.Fatalf("go vet -vettool=mglint failed on the repaired module: %v\n%s", err, out)
	}
}

// hotallocExemptions is the committed ceiling on //mglint:allow hotalloc
// sites in the cycle's packages. The contract is that a steady-state solve
// allocates nothing by construction, so an exemption is not a way to land an
// allocation on the solve path: the survivors serve entry points no cycle
// calls (the scratch-less wrappers bench/ and the oracles use) or a pooled
// dispatch that allocates its tasks regardless, and each says so. Lower the
// number when one goes; raising it needs the same argument in review.
const hotallocExemptions = 3

// TestHotallocExemptionBudget counts the exemption sites and holds them to
// the ceiling, each with its justification.
func TestHotallocExemptionBudget(t *testing.T) {
	const marker = "//mglint:allow hotalloc"
	var sites []string
	for _, pkg := range []string{"transfer", "stencil", "mg", "direct"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for internal/%s (%v)", pkg, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				_, why, ok := strings.Cut(line, marker)
				if !ok {
					continue
				}
				site := fmt.Sprintf("%s:%d", filepath.ToSlash(f), i+1)
				sites = append(sites, site)
				if len(strings.Trim(why, " —-")) < 20 {
					t.Errorf("%s: exemption without a justification naming who needs it", site)
				}
			}
		}
	}
	if len(sites) > hotallocExemptions {
		t.Errorf("%d hotalloc exemptions, ceiling %d — take the buffer from the caller's scratch instead:\n  %s",
			len(sites), hotallocExemptions, strings.Join(sites, "\n  "))
	}
}
