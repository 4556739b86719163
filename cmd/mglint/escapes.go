package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The escape gate audits the compiler's own escape analysis over the
// kernel packages: the zero-allocation contract as the compiler emits it.
// Every `-gcflags=-m` heap-escape diagnostic is normalized (line:col
// stripped, so unrelated edits don't churn the baseline) and counted per
// (file, message); the result is diffed against the committed
// ESCAPES.allow. A new escape shape, or more instances of a known one,
// fails the gate: someone added a heap allocation to a kernel package and
// must either hoist it or regenerate the baseline with -write (a
// reviewable diff, not a silent regression). An allowance the compiler no
// longer reports fails it too, until -write drops it.

// escRx matches one compiler escape diagnostic; the first group is the
// file, the second the message with position stripped.
var escRx = regexp.MustCompile(`^([^\s:]+\.go):\d+:\d+: (.*(?:escapes to heap|moved to heap).*)$`)

var escapeGate = allowGate{
	name:    "escapes",
	file:    "ESCAPES.allow",
	pkgs:    []string{"internal/stencil", "internal/transfer", "internal/grid"},
	gcflags: "-gcflags=-m",
	count:   countEscapes,
	header: "# ESCAPES.allow — committed baseline of compiler heap-escape diagnostics\n" +
		"# for the kernel packages (internal/stencil, internal/transfer,\n" +
		"# internal/grid). Generated by `go run ./cmd/mglint -write ./...`;\n" +
		"# checked by `go run ./cmd/mglint ./...` in CI. Format:\n" +
		"# <count>\\t<file>: <message with line:col stripped>\n",
	unit:   "heap-escape shapes in kernel packages",
	remedy: "hoist the allocation",
}

// countEscapes counts the normalized heap-escape diagnostics of a build.
func countEscapes(out string) (map[string]int, error) {
	counts := make(map[string]int)
	for _, line := range strings.Split(out, "\n") {
		if m := escRx.FindStringSubmatch(line); m != nil {
			counts[m[1]+": "+m[2]]++
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("no escape diagnostics captured — is the build cache disabled or the -m output format changed?")
	}
	return counts, nil
}

// allowGate diffs counted compiler diagnostics against a committed allow
// file: a key the file does not list, or more instances of one it does,
// fails, and so does a key the file lists that the compiler no longer
// reports, so the file shrinks only on purpose; -write regenerates the file
// (a reviewable diff, not a silent regression). The escape gate and the
// bounds-check gate share it. Its packages and its allow file are resolved
// against the module root, so the gate runs the same from any directory.
type allowGate struct {
	name    string   // report prefix
	file    string   // the allow file, relative to the module root
	pkgs    []string // the packages it builds, relative to the module root
	gcflags string   // the compiler flag whose diagnostics it counts
	count   func(buildOutput string) (map[string]int, error)
	header  string // '#'-prefixed description written above the entries
	unit    string // what one entry is, for messages
	remedy  string
}

// covers reports whether one of the gate's packages is among dirs, the
// directories of the linted packages.
func (g allowGate) covers(root string, dirs map[string]bool) bool {
	for _, p := range g.pkgs {
		if dirs[filepath.Join(root, p)] {
			return true
		}
	}
	return false
}

// run builds the gate's packages at the module root with its compiler
// flag, counts the diagnostics and checks them against the allow file, or
// with write regenerates it. The build cache replays compiler
// diagnostics, so repeated runs are cheap and identical.
func (g allowGate) run(root string, write bool) error {
	args := []string{"build", g.gcflags}
	for _, p := range g.pkgs {
		args = append(args, "./"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s: go build %s: %w\n%s", g.name, g.gcflags, err, out)
	}
	env := exec.Command("go", "env", "GOROOT")
	env.Dir = root
	goroot, err := env.Output()
	if err != nil {
		return fmt.Errorf("%s: go env GOROOT: %w", g.name, err)
	}
	got, err := g.count(keyGOROOT(string(out), strings.TrimSpace(string(goroot))))
	if err != nil {
		return fmt.Errorf("%s: %w", g.name, err)
	}
	return g.check(root, got, write)
}

// keyGOROOT spells the Go installation's root as $GOROOT in build output.
// Generic standard-library code instantiated in a gated package (the
// operator index's runtime.AddCleanup) reports its diagnostics at the
// library's absolute path, which differs from host to host.
func keyGOROOT(out, goroot string) string {
	return strings.ReplaceAll(out, goroot+string(filepath.Separator), "$GOROOT"+string(filepath.Separator))
}

func (g allowGate) check(root string, got map[string]int, write bool) error {
	if write {
		if err := g.writeAllow(root, got); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s (%d distinct entries, %d total)\n", g.name, g.file, len(got), total(got))
		return nil
	}
	want, err := g.readAllow(root)
	if err != nil {
		return fmt.Errorf("%s: reading %s: %w (regenerate with mglint -write)", g.name, g.file, err)
	}

	var newShapes, grown, stale []string
	for k, n := range got {
		switch allowed, ok := want[k]; {
		case !ok:
			newShapes = append(newShapes, fmt.Sprintf("%s (%d)", k, n))
		case n > allowed:
			grown = append(grown, fmt.Sprintf("%s (%d, allowance %d)", k, n, allowed))
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			stale = append(stale, k)
		}
	}
	sort.Strings(newShapes)
	sort.Strings(grown)
	sort.Strings(stale)

	if len(newShapes) == 0 && len(grown) == 0 && len(stale) == 0 {
		fmt.Fprintf(os.Stderr, "%s: OK — %d distinct entries, %d total, all within %s (0 stale allowances)\n",
			g.name, len(got), total(got), g.file)
		return nil
	}
	for _, s := range newShapes {
		fmt.Fprintf(os.Stderr, "%s: NEW: %s\n", g.name, s)
	}
	for _, s := range grown {
		fmt.Fprintf(os.Stderr, "%s: GREW: %s\n", g.name, s)
	}
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "%s: STALE (allowed, no longer reported): %s\n", g.name, s)
	}
	return fmt.Errorf("%s: %d new, %d grown and %d stale %s; %s or regenerate %s with mglint -write",
		g.name, len(newShapes), len(grown), len(stale), g.unit, g.remedy, g.file)
}

func (g allowGate) writeAllow(root string, counts map[string]int) error {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(g.header)
	for _, k := range keys {
		fmt.Fprintf(&b, "%d\t%s\n", counts[k], k)
	}
	return os.WriteFile(filepath.Join(root, g.file), []byte(b.String()), 0o644)
}

func (g allowGate) readAllow(root string) (map[string]int, error) {
	f, err := os.Open(filepath.Join(root, g.file))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cnt, key, ok := strings.Cut(line, "\t")
		n, err := strconv.Atoi(cnt)
		if !ok || err != nil {
			return nil, fmt.Errorf("%s:%d: malformed entry %q", g.file, lineNo, line)
		}
		want[key] = n
	}
	return want, sc.Err()
}

func total(counts map[string]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}
