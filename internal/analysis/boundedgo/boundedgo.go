// Package boundedgo defines an analyzer that forbids unbounded goroutine
// launches in the serving path. PR 4's bug is the motivating specimen:
// Service.SolveBatch fanned out a goroutine per problem, so a 10k-problem
// batch parked 10k goroutines on the admission semaphore; the fix — a
// worker loop sized by the admission limit — is now the idiom this
// analyzer enforces mechanically in serve, registry.go and service.go.
//
// A `go` statement in scope is reported unless its launch is visibly
// bounded:
//
//   - it sits in a counted loop (`for i := 0; i < workers; i++` or Go
//     1.22's `for range workers`) whose bound is a precomputed worker
//     count — not a direct len(...) of the request data, which is
//     exactly the goroutine-per-problem shape
//   - a semaphore/quota acquire precedes it in the same function: a call
//     to something named Acquire/TryAcquire/acquire*/admit*, or a send
//     or receive on a channel whose name says semaphore (sem, slot,
//     ticket, gate, tok, quota)
//   - it is annotated //mglint:allow boundedgo with a justification
//
// Range loops over slices, maps, or channels that launch per element are
// always reported: that is the PR 4 fan-out as a lint rule.
package boundedgo

import (
	"go/ast"
	"go/types"
	"regexp"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"pbmg/internal/analysis/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "boundedgo",
	Doc:      "no naked go statements in the serving path: goroutine launches must be bounded by a worker count or a semaphore acquire",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var acquireRx = regexp.MustCompile(`^(Acquire|TryAcquire|acquire|admit)`)
var semNameRx = regexp.MustCompile(`(?i)(sem|slot|ticket|gate|tok|quota)`)

func run(pass *analysis.Pass) (interface{}, error) {
	inScopePkg := lintutil.PkgInScope(pass.Pkg.Path(), "serve")
	allow := lintutil.NewAllowIndex(pass, "boundedgo")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.WithStack([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		g := n.(*ast.GoStmt)
		if lintutil.IsTestFile(pass.Fset, g.Pos()) || allow.Allowed(g.Pos()) {
			return false
		}
		// Scope: the serve package wholesale, plus the registry
		// and service layers of the root package by filename.
		if !inScopePkg {
			base := lintutil.FileBase(pass.Fset, g.Pos())
			if base != "registry.go" && base != "service.go" {
				return false
			}
		}
		if reason, bad := naked(pass, g, stack); bad {
			pass.Reportf(g.Pos(), "boundedgo: %s; bound the fan-out with a worker loop sized by the admission limit, guard the launch with a semaphore acquire, or annotate //mglint:allow boundedgo", reason)
		}
		return false
	})
	return nil, nil
}

// naked decides whether the go statement is an unbounded launch, and
// says why.
func naked(pass *analysis.Pass, g *ast.GoStmt, stack []ast.Node) (string, bool) {
	// Innermost enclosing loop decides the launch multiplicity.
	for i := len(stack) - 1; i >= 0; i-- {
		switch loop := stack[i].(type) {
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[loop.X]
			if ok && isInteger(tv.Type) {
				return "", false // for range workers — counted fan-out
			}
			return "goroutine launched per ranged element (the PR 4 fan-out bug shape)", true
		case *ast.ForStmt:
			if loop.Cond == nil {
				return "goroutine launched inside an unbounded for loop", true
			}
			if bound := loopBound(loop); bound != nil {
				if isLenCall(bound) {
					return "goroutine-per-item loop bounded by len() of the data; size the loop by the admission limit instead", true
				}
				return "", false // counted worker loop
			}
			return "goroutine launched inside a loop without a recognizable worker bound", true
		case *ast.FuncDecl, *ast.FuncLit:
			// Reached the enclosing function without a loop: straight-line
			// launch. Require a visible admission guard before it.
			if guardedBefore(pass, stack[i], g) {
				return "", false
			}
			return "naked goroutine launch (one per call of this function, unbounded across calls)", true
		}
	}
	return "naked goroutine launch", true
}

// loopBound extracts the comparison bound of a classic counted loop
// `for i := 0; i < B; i++`, or nil if the shape doesn't match.
func loopBound(loop *ast.ForStmt) ast.Expr {
	cmp, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch cmp.Op.String() {
	case "<", "<=", ">", ">=":
		return cmp.Y
	}
	return nil
}

func isLenCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "len"
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// guardedBefore reports whether an admission guard — an Acquire-style
// call or a semaphore channel operation — appears lexically before the
// go statement inside the enclosing function node.
func guardedBefore(pass *analysis.Pass, fn ast.Node, g *ast.GoStmt) bool {
	guarded := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil || guarded {
			return false
		}
		if n != fn && n.Pos() >= g.Pos() {
			return false // at or past the launch; guards must precede it
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if name, _ := calleeName(x); acquireRx.MatchString(name) {
				guarded = true
			}
		case *ast.SendStmt:
			if semChan(x.Chan) {
				guarded = true
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" && semChan(x.X) {
				guarded = true
			}
		}
		return !guarded
	})
	return guarded
}

func calleeName(call *ast.CallExpr) (string, bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name, true
	case *ast.SelectorExpr:
		return f.Sel.Name, true
	}
	return "", false
}

// semChan reports whether the channel expression's name reads as a
// semaphore/quota token channel.
func semChan(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return semNameRx.MatchString(x.Name)
	case *ast.SelectorExpr:
		return semNameRx.MatchString(x.Sel.Name)
	}
	return false
}
