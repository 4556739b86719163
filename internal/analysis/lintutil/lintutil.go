// Package lintutil holds the pieces the mglint analyzers share: small
// AST/type helpers and walkers, and the runner that cmd/mglint and its
// fixture tests drive the analyzers through. A finding has no suppression:
// it is fixed. The runner needs no more than go/ast, go/types and golang.org/x/tools/go/cfg: Run
// builds each function's control-flow graph once, with the set of
// functions that never return (panic helpers, os.Exit, log.Fatal) that a
// load shares across its packages, adds the package's own to that set,
// and hands the graphs to every Analyzer through its Pass.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IsTestFile reports whether pos lies in a _test.go file. The mglint
// analyzers enforce production invariants; test files routinely (and
// legitimately) allocate, spawn goroutines, and provoke the guarded
// panics on purpose.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// FuncDecls calls visit on every function declaration of files, in
// source order.
func FuncDecls(files []*ast.File, visit func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				visit(fd)
			}
		}
	}
}

// WithStack walks root in preorder and calls visit on each node with the
// stack of nodes enclosing it: root first, the node itself last. A false
// return skips the node's children.
func WithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !visit(n, stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// Callee returns the function or method a call names, through any
// parentheses and generic instantiation, interface methods included; nil
// for builtins, conversions and calls of func values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
