// Package lintutil holds the pieces the mglint analyzers share: the
// //mglint:allow escape-hatch annotation, small AST/type helpers and
// walkers, and the runner that cmd/mglint and its fixture tests drive the
// analyzers through. The runner needs no more than go/ast, go/types and golang.org/x/tools/go/cfg: Run
// builds each function's control-flow graph once, with the set of
// functions that never return (panic helpers, os.Exit, log.Fatal) that a
// load shares across its packages, adds the package's own to that set,
// and hands the graphs to every Analyzer through its Pass.
//
// The annotation convention: a comment of the form
//
//	//mglint:allow <analyzer> — <one-line justification>
//
// suppresses that analyzer's findings on the same line and on the next
// line. Placed on (or in the doc comment of) a function declaration, it
// suppresses the whole function. The justification is not optional by
// convention: an allow without a reason is a review comment waiting to
// happen.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

var allowRx = regexp.MustCompile(`^//mglint:allow\s+([a-zA-Z0-9_,]+)\b`)

// AllowIndex answers "is this position covered by an //mglint:allow
// comment for this analyzer?" for one pass.
type AllowIndex struct {
	fset  *token.FileSet
	lines map[string]map[int]bool // filename -> set of annotated lines
	funcs []funcRange             // whole-function suppressions
}

type funcRange struct {
	pos, end token.Pos
}

// NewAllowIndex scans the pass's files for //mglint:allow comments naming
// the analyzer (comma-separated lists are accepted) and returns the index.
func NewAllowIndex(pass *Pass, analyzer string) *AllowIndex {
	idx := &AllowIndex{fset: pass.Fset, lines: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		annotated := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				names := strings.Split(m[1], ",")
				for _, n := range names {
					if n == analyzer {
						p := pass.Fset.Position(c.Pos())
						annotated[p.Line] = true
						if len(annotated) == 1 {
							idx.lines[p.Filename] = annotated
						}
					}
				}
			}
		}
		if len(annotated) == 0 {
			continue
		}
		// An allow on a function declaration (or inside its doc comment)
		// suppresses the whole function.
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declLine := pass.Fset.Position(fd.Pos()).Line
			hit := annotated[declLine] || annotated[declLine-1]
			if fd.Doc != nil && !hit {
				from := pass.Fset.Position(fd.Doc.Pos()).Line
				to := pass.Fset.Position(fd.Doc.End()).Line
				for l := from; l <= to && !hit; l++ {
					hit = annotated[l]
				}
			}
			if hit {
				idx.funcs = append(idx.funcs, funcRange{fd.Pos(), fd.End()})
			}
		}
	}
	return idx
}

// Allowed reports whether pos is suppressed: it sits on an annotated line,
// on the line after one, or inside a function whose declaration carries
// the annotation.
func (idx *AllowIndex) Allowed(pos token.Pos) bool {
	for _, fr := range idx.funcs {
		if pos >= fr.pos && pos < fr.end {
			return true
		}
	}
	p := idx.fset.Position(pos)
	lines := idx.lines[p.Filename]
	if lines == nil {
		return false
	}
	return lines[p.Line] || lines[p.Line-1]
}

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
