package lintutil_test

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pbmg/internal/analysis/lintutil"
)

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p := m[path]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("package %s not checked yet", path)
}

// TestNoReturn runs two packages, the second importing the first, through
// one no-return set and checks which functions it holds.
func TestNoReturn(t *testing.T) {
	pkgs := []struct{ path, src string }{
		{"a", `package a

// Before calls Fail, which is declared after it.
func Before() { Fail("before") }

func Fail(msg string) { panic(msg) }

func Loop() {
	for {
	}
}

func MaybeFail(ok bool) {
	if !ok {
		panic("maybe")
	}
}

func Ping() { Pong() }
func Pong() { Ping() }

func CallValue(f func()) { f() }

type Stopper interface{ Stop() }

func CallMethod(s Stopper) { s.Stop() }

func Plain() int { return 1 }
`},
		{"b", `package b

import "a"

func Stop() { a.Fail("b") }

func Go() int { return a.Plain() }
`},
	}
	fset := token.NewFileSet()
	checked := make(mapImporter)
	noReturn := make(map[*types.Func]bool)
	for _, pkg := range pkgs {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, pkg.path+".go"), []byte(pkg.src), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := lintutil.Check(fset, pkg.path, dir, []string{pkg.path + ".go"}, checked)
		if err != nil {
			t.Fatal(err)
		}
		checked[pkg.path] = p.Types
		lintutil.Run(p, noReturn)
	}
	var got []string
	for fn, never := range noReturn {
		if never {
			got = append(got, fn.FullName())
		}
	}
	slices.Sort(got)
	if want := []string{"a.Before", "a.Fail", "a.Loop", "b.Stop"}; !slices.Equal(got, want) {
		t.Errorf("no-return set = %v, want %v", got, want)
	}
}
