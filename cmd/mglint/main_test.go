package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSeededViolationFailsVet builds the mglint binary and runs it the way
// CI does over scratch modules, each seeded with one violation, proving
// the whole pipeline (package loading, type-checking, the no-return set
// of every dependency, the analyzers, nonzero exit) catches a regression;
// the repaired module must pass.
func TestSeededViolationFailsVet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and lints scratch modules")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "mglint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mglint: %v\n%s", err, out)
	}

	// lint writes a module whose serve package is serveSrc, with a check
	// package whose Fail always panics, and runs mglint ./... in it.
	lint := func(name, serveSrc string) (string, int) {
		t.Helper()
		dir := filepath.Join(tmp, name)
		files := map[string]string{
			"go.mod":         "module scratch\n\ngo 1.24\n",
			"serve/serve.go": serveSrc,
			"check/check.go": "package check\n\nfunc Fail(msg string) { panic(msg) }\n",
		}
		for name, src := range files {
			if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return string(out), exit.ExitCode()
		} else if err != nil {
			t.Fatalf("running mglint: %v", err)
		}
		return string(out), 0
	}

	// Each case names the finding it wants as "posn: analyzer".
	for _, c := range []struct{ name, want, src string }{
		// The PR 4 shape, a goroutine per ranged element.
		{"fanout", "serve/serve.go:5:3: boundedgo", `package serve

func FanOut(reqs []int, handle func(int)) {
	for _, r := range reqs {
		go handle(r)
	}
}
`},
		// The pooled *[]byte read buffer, checked out and never put back.
		{"wirebuf", "serve/serve.go:8:2: poolput", `package serve

import "sync"

var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func Read(src []byte) int {
	buf := wirePool.Get().(*[]byte)
	*buf = append((*buf)[:0], src...)
	return len(*buf)
}
`},
		// A path that ends in log.Fatal leaves the buffer checked out.
		// mglint sees it only if log's dependencies went through the
		// no-return set: syscall.Exit, then os.Exit, then log.Fatal.
		{"wirebuf-fatal", "serve/serve.go:11:2: poolput", `package serve

import (
	"log"
	"sync"
)

var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func Read(src []byte, ok bool) int {
	buf := wirePool.Get().(*[]byte)
	if !ok {
		log.Fatal("bad")
	}
	*buf = append((*buf)[:0], src...)
	n := len(*buf)
	wirePool.Put(buf)
	return n
}
`},
		// The same through a helper of another package that always panics.
		{"wirebuf-helper", "serve/serve.go:12:2: poolput", `package serve

import (
	"sync"

	"scratch/check"
)

var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func Read(src []byte, ok bool) int {
	buf := wirePool.Get().(*[]byte)
	if !ok {
		check.Fail("bad")
	}
	*buf = append((*buf)[:0], src...)
	n := len(*buf)
	wirePool.Put(buf)
	return n
}
`},
	} {
		out, code := lint(c.name, c.src)
		if code != 1 {
			t.Errorf("%s: mglint exited %d on a seeded violation, want 1; output:\n%s", c.name, code, out)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: output does not report %q:\n%s", c.name, c.want, out)
		}
	}

	// The repaired fan-out — a worker loop sized by the host's parallelism
	// — must pass with exit 0.
	if out, code := lint("workers", `package serve

import "runtime"

func FanOut(reqs chan int, handle func(int)) {
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < workers; i++ {
		go func() {
			for r := range reqs {
				handle(r)
			}
		}()
	}
}
`); code != 0 {
		t.Fatalf("mglint exited %d on the repaired module:\n%s", code, out)
	}
}

// TestVendorHoldsOnlyImportedPackages holds vendor/ to the x/tools
// packages the module imports, tests included: a package nothing imports
// is dead code to be deleted, here and in vendor/modules.txt.
func TestVendorHoldsOnlyImportedPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	root := filepath.Join("..", "..")
	cmd := exec.Command("go", "list", "-deps", "-test", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var imported []string
	for _, pkg := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(pkg, "golang.org/x/tools/") {
			imported = append(imported, pkg)
		}
	}
	slices.Sort(imported)

	modules, err := os.ReadFile(filepath.Join(root, "vendor", "modules.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range strings.Split(string(modules), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			listed = append(listed, line)
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, imported) {
		t.Errorf("vendor/modules.txt lists\n  %s\nbut the module imports\n  %s",
			strings.Join(listed, "\n  "), strings.Join(imported, "\n  "))
	}

	var dirs []string
	err = filepath.WalkDir(filepath.Join(root, "vendor"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			dir, _ := filepath.Rel(filepath.Join(root, "vendor"), filepath.Dir(path))
			dirs = append(dirs, filepath.ToSlash(dir))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(dirs)
	if dirs = slices.Compact(dirs); !slices.Equal(dirs, listed) {
		t.Errorf("vendor/ holds Go files in\n  %s\nbut vendor/modules.txt lists\n  %s",
			strings.Join(dirs, "\n  "), strings.Join(listed, "\n  "))
	}
}

// TestCIRunNamesMatchTests holds the workflow's test selections to the
// tests that exist: on every go test line of .github/workflows/ci.yml, each
// |-alternative of -run, -bench and -fuzz (bar ^$) must match a function of
// that kind in the line's packages, so deleting or renaming a test cannot
// leave a named step that silently runs nothing. A seeded line naming a
// missing test must be reported.
func TestCIRunNamesMatchTests(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if missing := missingCINames(t, root, string(ci)); len(missing) > 0 {
		t.Errorf("ci.yml selects tests that do not exist:\n  %s", strings.Join(missing, "\n  "))
	}
	seeded := "        run: go test -race -run 'TestSolveRejectsMismatchedGrids|TestNoSuchTest' .\n" +
		"        run: go test -run '^$' -fuzz FuzzNoSuchTarget ./serve\n"
	got := missingCINames(t, root, seeded)
	if len(got) != 2 || !strings.Contains(got[0], `"TestNoSuchTest"`) || !strings.Contains(got[1], `"FuzzNoSuchTarget"`) {
		t.Errorf("seeded missing names reported as %q, want TestNoSuchTest and FuzzNoSuchTarget", got)
	}
}

var (
	ciArg    = regexp.MustCompile(`'[^']*'|\S+`)
	ciCd     = regexp.MustCompile(`\bcd (\S+) &&`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// missingCINames reports each -run/-fuzz alternative on a go test line of
// the workflow text that matches no test function in the line's packages.
func missingCINames(t *testing.T, root, workflow string) []string {
	t.Helper()
	var missing []string
	for i, line := range strings.Split(workflow, "\n") {
		before, args, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		dir := root
		if m := ciCd.FindStringSubmatch(before); m != nil {
			dir = filepath.Join(root, m[1])
		}
		var tokens []string
		for _, tok := range ciArg.FindAllString(args, -1) {
			tokens = append(tokens, strings.Trim(tok, "'"))
		}
		for _, m := range missingSelections(t, dir, tokens) {
			missing = append(missing, fmt.Sprintf("line %d: %s", i+1, m))
		}
	}
	return missing
}

// missingSelections reports each alternative of the -run, -bench and -fuzz
// patterns among the arguments of one go test command, run from dir, that
// matches no function of the kind the flag selects (-run: Test and Fuzz,
// -bench: Benchmark, -fuzz: Fuzz) in the command's packages. Only the
// pattern's first level (before a /) names functions; ^$ selects none on
// purpose. A command that names no package tests ".".
func missingSelections(t *testing.T, dir string, args []string) []string {
	t.Helper()
	type selection struct{ flag, pattern string }
	var sels []selection
	var pkgs []string
	for j := 0; j < len(args); j++ {
		flag, value, hasValue := strings.Cut(args[j], "=")
		switch {
		case flag == "-run" || flag == "-bench" || flag == "-fuzz":
			if !hasValue {
				if j+1 == len(args) {
					continue
				}
				j++
				value = args[j]
			}
			sels = append(sels, selection{flag, value})
		case args[j] == "." || strings.HasPrefix(args[j], "./"):
			pkgs = append(pkgs, args[j])
		}
	}
	if len(sels) == 0 {
		return nil
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	prefixes := map[string][]string{"-run": {"Test", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
	names := testNames(t, dir, pkgs)
	var missing []string
	for _, sel := range sels {
		level0, _, _ := strings.Cut(sel.pattern, "/")
		for _, alt := range alternatives(level0) {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				missing = append(missing, fmt.Sprintf("%s %q: %v", sel.flag, alt, err))
				continue
			}
			if !slices.ContainsFunc(names, func(name string) bool {
				return re.MatchString(name) && slices.ContainsFunc(prefixes[sel.flag], func(p string) bool {
					return strings.HasPrefix(name, p)
				})
			}) {
				missing = append(missing, fmt.Sprintf("%s %q matches nothing in %s", sel.flag, alt, strings.Join(pkgs, " ")))
			}
		}
	}
	return missing
}

// alternatives splits a regular expression at the | outside parentheses.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// testNames lists the Test, Fuzz and Benchmark functions in the _test.go
// files of the package patterns (".", "./dir", "./dir/...") under dir,
// build-tagged files included.
func testNames(t *testing.T, dir string, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		base, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(filepath.Join(dir, base), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != filepath.Join(dir, base) && (!recursive || d.Name() == "vendor" || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
			return err
		})
		if err != nil {
			t.Fatalf("package %s: %v", pkg, err)
		}
	}
	return names
}
