package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pbmg/internal/analysis/boundedgo"
	"pbmg/internal/analysis/lintutil"
	"pbmg/internal/analysis/poolput"
)

func TestBoundedgo(t *testing.T) {
	runFixtures(t, boundedgo.Analyzer, "serve")
}

func TestPoolput(t *testing.T) {
	runFixtures(t, poolput.Analyzer, "mg")
}

// runFixtures loads each named GOPATH-style fixture package under
// testdata/src, runs the analyzer on it and asserts that every diagnostic
// matches a // want "regexp" comment on its line and every want comment is
// matched by a diagnostic. It loads with go/parser + go/types, resolving
// fixture-local imports from testdata/src and everything else from the
// compiler's source importer, so the tests run hermetically offline. The
// analyzer runs through lintutil.Run, the runner mglint uses, and the
// packages of one call share one no-return set, filled in the order they
// are named. A package that is only imported never goes through
// lintutil.Run, the standard library included: none of its functions is
// in the set, so a fixture's log.Fatal may return.
func runFixtures(t *testing.T, a *lintutil.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join("testdata", "src"))
	for _, path := range pkgPaths {
		t.Run(path, func(t *testing.T) {
			t.Helper()
			p, err := l.load(path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", path, err)
			}
			diags := lintutil.Run(p, l.noReturn, a)
			checkWants(t, l.fset, p.Files, diags[a])
		})
	}
}

type loader struct {
	srcRoot  string
	fset     *token.FileSet
	cache    map[string]*lintutil.Package
	noReturn map[*types.Func]bool
	std      types.ImporterFrom
}

func newLoader(srcRoot string) *loader {
	fset := token.NewFileSet()
	return &loader{
		srcRoot:  srcRoot,
		fset:     fset,
		cache:    make(map[string]*lintutil.Package),
		noReturn: make(map[*types.Func]bool),
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// Import makes the loader a types.Importer: fixture packages win over the
// standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if fi, err := os.Stat(filepath.Join(l.srcRoot, path)); err == nil && fi.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*lintutil.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.srcRoot, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	p, err := lintutil.Check(l.fset, path, dir, names, l)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}

var wantRx = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRx = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type want struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

// checkWants asserts the bidirectional match between diagnostics and
// want comments.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lintutil.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRx.FindAllStringSubmatch(m[1], -1) {
					pat, err := strconv.Unquote(`"` + q[1] + `"`)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q[0], err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{pos.Filename, pos.Line, rx, false})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q: no matching diagnostic", w.file, w.line, w.rx)
		}
	}
}
