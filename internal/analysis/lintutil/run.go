package lintutil

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"

	"golang.org/x/tools/go/cfg"
)

// Analyzer is one mglint check: Run inspects a package through its Pass
// and reports what it finds with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// CFGs holds the control-flow graph of every function declaration
	// with a body, built with the no-return set the package was run with.
	CFGs map[*ast.FuncDecl]*cfg.CFG

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{pos, fmt.Sprintf(format, args...)})
}

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

// Run builds p's control-flow graphs, adding the functions of p that
// never return to noReturn, then runs each analyzer over p and returns
// its diagnostics. A caller shares one noReturn set across every package
// of a load and runs the packages after their dependencies; a dependency
// run with no analyzers only adds to the set.
func Run(p *Package, noReturn map[*types.Func]bool, analyzers ...*Analyzer) map[*Analyzer][]Diagnostic {
	cfgs := buildCFGs(p, noReturn)
	diags := make(map[*Analyzer][]Diagnostic)
	for _, a := range analyzers {
		pass := &Pass{Fset: p.Fset, Files: p.Files, Pkg: p.Types, TypesInfo: p.Info, CFGs: cfgs}
		a.Run(pass)
		diags[a] = pass.diags
	}
	return diags
}

// buildCFGs builds the CFG of every function declaration of p and adds
// those that never return to noReturn: no live block of the CFG ends in a
// return. A call to a function declared in p builds the callee first; a
// call cycle is broken at the declaration met first in source order.
func buildCFGs(p *Package, noReturn map[*types.Func]bool) map[*ast.FuncDecl]*cfg.CFG {
	decls := make(map[*types.Func]*ast.FuncDecl)
	var order []*types.Func
	FuncDecls(p.Files, func(fd *ast.FuncDecl) {
		if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
			decls[fn] = fd
			order = append(order, fn)
		}
	})
	cfgs := make(map[*ast.FuncDecl]*cfg.CFG)
	started := make(map[*types.Func]bool)
	var build func(fn *types.Func)
	mayReturn := func(call *ast.CallExpr) bool {
		if id, ok := call.Fun.(*ast.Ident); ok && p.Info.Uses[id] == panicBuiltin {
			return false
		}
		fn := Callee(p.Info, call)
		if fn == nil || isInterfaceMethod(fn) {
			return true // a func value or an interface method may return
		}
		if _, ok := decls[fn]; ok {
			build(fn)
		}
		return !noReturn[fn]
	}
	build = func(fn *types.Func) {
		if started[fn] {
			return
		}
		started[fn] = true
		if intrinsicNoReturn(fn) {
			noReturn[fn] = true
		}
		if fd := decls[fn]; fd.Body != nil {
			g := cfg.New(fd.Body, mayReturn)
			cfgs[fd] = g
			if !hasLiveReturn(g) {
				noReturn[fn] = true
			}
		}
	}
	for _, fn := range order {
		build(fn)
	}
	return cfgs
}

var panicBuiltin = types.Universe.Lookup("panic")

func hasLiveReturn(g *cfg.CFG) bool {
	for _, b := range g.Blocks {
		if b.Live && b.Return() != nil {
			return true
		}
	}
	return false
}

// intrinsicNoReturn reports whether fn stops the calling thread itself.
func intrinsicNoReturn(fn *types.Func) bool {
	path, name := fn.Pkg().Path(), fn.Name()
	return path == "syscall" && (name == "Exit" || name == "ExitProcess" || name == "ExitThread") ||
		path == "runtime" && name == "Goexit"
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}
