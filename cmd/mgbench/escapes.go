package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The escape gate audits the compiler's own escape analysis over the
// kernel packages — the ground truth behind the hotalloc analyzer and its
// //mglint:allow annotations. Every `-gcflags=-m` heap-escape diagnostic
// is normalized (line:col stripped, so unrelated edits don't churn the
// baseline) and counted per (file, message); the result is diffed against
// the committed ESCAPES.allow. A new escape shape, or more instances of a
// known one, fails the gate: someone added a heap allocation to a kernel
// package and must either hoist it or regenerate the baseline with -write
// (a reviewable diff, not a silent regression). An allowance the compiler
// no longer reports fails it too, until -write drops it.

// escapePkgs is the audited surface: the hotalloc scope.
var escapePkgs = []string{"./internal/stencil", "./internal/transfer", "./internal/grid"}

// escRx matches one compiler escape diagnostic; the first group is the
// file, the second the message with position stripped.
var escRx = regexp.MustCompile(`^([^\s:]+\.go):\d+:\d+: (.*(?:escapes to heap|moved to heap).*)$`)

func runEscapes(write bool, logf func(format string, args ...any)) error {
	got, err := collectEscapes(logf)
	if err != nil {
		return err
	}
	return escapeGate.check(got, write)
}

// allowGate diffs counted compiler diagnostics against a committed allow
// file: a key the file does not list, or more instances of one it does,
// fails, and so does a key the file lists that the compiler no longer
// reports, so the file shrinks only on purpose; -write regenerates the file
// (a reviewable diff, not a silent regression). The escape gate and the
// bounds-check gate share it.
type allowGate struct {
	name   string // log prefix, also the -exp value
	file   string
	header string // '#'-prefixed description written above the entries
	unit   string // what one entry is, for messages
	remedy string
}

var escapeGate = allowGate{
	name: "escapes",
	file: "ESCAPES.allow",
	header: "# ESCAPES.allow — committed baseline of compiler heap-escape diagnostics\n" +
		"# for the kernel packages (internal/stencil, internal/transfer,\n" +
		"# internal/grid). Generated by `go run ./cmd/mgbench -exp escapes -write`;\n" +
		"# checked by `go run ./cmd/mgbench -exp escapes` in CI. Format:\n" +
		"# <count>\\t<file>: <message with line:col stripped>\n",
	unit:   "heap-escape shapes in kernel packages",
	remedy: "hoist the allocation",
}

func (g allowGate) check(got map[string]int, write bool) error {
	if write {
		if err := g.writeAllow(got); err != nil {
			return err
		}
		fmt.Printf("%s: wrote %s (%d distinct entries, %d total)\n", g.name, g.file, len(got), total(got))
		return nil
	}
	want, err := g.readAllow()
	if err != nil {
		return fmt.Errorf("%s: reading %s: %w (regenerate with -exp %s -write)", g.name, g.file, err, g.name)
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
		fmt.Printf("%s: OK — %d distinct entries, %d total, all within %s (0 stale allowances)\n",
			g.name, len(got), total(got), g.file)
		return nil
	}
	for _, s := range newShapes {
		fmt.Printf("%s: NEW: %s\n", g.name, s)
	}
	for _, s := range grown {
		fmt.Printf("%s: GREW: %s\n", g.name, s)
	}
	for _, s := range stale {
		fmt.Printf("%s: STALE (allowed, no longer reported): %s\n", g.name, s)
	}
	return fmt.Errorf("%s: %d new, %d grown and %d stale %s; %s or regenerate %s with -exp %s -write",
		g.name, len(newShapes), len(grown), len(stale), g.unit, g.remedy, g.file, g.name)
}

// collectEscapes builds the kernel packages with -gcflags=-m and counts
// the normalized heap-escape diagnostics. The build cache replays compiler
// diagnostics, so repeated runs are cheap and identical.
func collectEscapes(logf func(format string, args ...any)) (map[string]int, error) {
	if logf != nil {
		logf("escapes: go build -gcflags=-m %s", strings.Join(escapePkgs, " "))
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, escapePkgs...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("escapes: go build -gcflags=-m: %w\n%s", err, out)
	}
	counts := make(map[string]int)
	for _, line := range strings.Split(string(out), "\n") {
		if m := escRx.FindStringSubmatch(line); m != nil {
			counts[m[1]+": "+m[2]]++
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("escapes: no escape diagnostics captured — is the build cache disabled or the -m output format changed?")
	}
	return counts, nil
}

func (g allowGate) writeAllow(counts map[string]int) error {
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
	return os.WriteFile(g.file, []byte(b.String()), 0o644)
}

func (g allowGate) readAllow() (map[string]int, error) {
	f, err := os.Open(g.file)
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
