package lintutil

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"

	"golang.org/x/tools/go/analysis"
)

// Package is one parsed and type-checked package, ready to analyze.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Check parses the named files of dir and type-checks them as package
// path, resolving imports through imp.
func Check(fset *token.FileSet, path, dir string, names []string, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{fset, files, pkg, info}, nil
}

// Run runs each analyzer over p, after its transitive Requires, and
// returns the diagnostics of every analyzer it ran. Object facts go to and
// come from facts, which a caller shares across every package of one load.
func Run(p *Package, facts Facts, analyzers ...*analysis.Analyzer) (map[*analysis.Analyzer][]analysis.Diagnostic, error) {
	results := make(map[*analysis.Analyzer]any)
	diags := make(map[*analysis.Analyzer][]analysis.Diagnostic)
	var runOne func(a *analysis.Analyzer) error
	runOne = func(a *analysis.Analyzer) error {
		if _, done := results[a]; done {
			return nil
		}
		for _, req := range a.Requires {
			if err := runOne(req); err != nil {
				return err
			}
		}
		pass := &analysis.Pass{
			Analyzer:          a,
			Fset:              p.Fset,
			Files:             p.Files,
			Pkg:               p.Types,
			TypesInfo:         p.Info,
			TypesSizes:        types.SizesFor("gc", "amd64"),
			ResultOf:          results,
			Report:            func(d analysis.Diagnostic) { diags[a] = append(diags[a], d) },
			ImportObjectFact:  facts.importObjectFact,
			ExportObjectFact:  facts.exportObjectFact,
			ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
			ExportPackageFact: func(analysis.Fact) {},
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		results[a] = res
		return nil
	}
	for _, a := range analyzers {
		if err := runOne(a); err != nil {
			return nil, err
		}
	}
	return diags, nil
}

// Facts is an in-memory store of the object facts analyzers export; make
// one with make(Facts).
type Facts map[factKey]analysis.Fact

type factKey struct {
	obj types.Object
	typ reflect.Type
}

func (s Facts) exportObjectFact(obj types.Object, f analysis.Fact) {
	s[factKey{obj, reflect.TypeOf(f)}] = f
}

func (s Facts) importObjectFact(obj types.Object, f analysis.Fact) bool {
	stored, ok := s[factKey{obj, reflect.TypeOf(f)}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
