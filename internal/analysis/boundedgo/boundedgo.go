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
//     1.22's `for range workers`) whose bound does not grow with the
//     request data: a constant, runtime.GOMAXPROCS or runtime.NumCPU, a
//     min(…) with one of those among its arguments, or the width an
//     admission call returns; arithmetic that cannot raise it past such a
//     bound (`- 1`, `/ 2`) keeps it bounded, and a variable is followed to
//     every definition of it in the enclosing function declaration. A
//     parameter, a field, a len(…) of the request data — exactly the
//     goroutine-per-problem shape — or a count derived from them is not a
//     bound
//   - a semaphore/quota acquire precedes it in the same function: a call
//     to something named Acquire/TryAcquire/acquire*/admit*/enter*, or a
//     send or receive on a channel whose name says semaphore (sem, slot,
//     ticket, gate, tok, quota)
//
// Range loops over slices, maps, or channels that launch per element are
// always reported: that is the PR 4 fan-out as a lint rule.
package boundedgo

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"regexp"
	"slices"

	"pbmg/internal/analysis/lintutil"
)

var Analyzer = &lintutil.Analyzer{
	Name: "boundedgo",
	Doc:  "no naked go statements in the serving path: goroutine launches must be bounded by a worker count or a semaphore acquire",
	Run:  run,
}

var acquireRx = regexp.MustCompile(`^(Acquire|TryAcquire|acquire|admit|enter)`)
var semNameRx = regexp.MustCompile(`(?i)(sem|slot|ticket|gate|tok|quota)`)

func run(pass *lintutil.Pass) {
	inScopePkg := path.Base(pass.Pkg.Path()) == "serve"

	// A go statement's children are not visited: a launch inside a
	// launched literal is the outer launch's concern.
	for _, f := range pass.Files {
		lintutil.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lintutil.IsTestFile(pass.Fset, g.Pos()) {
				return false
			}
			// Scope: the serve package wholesale, plus the registry
			// and service layers of the root package by filename.
			if !inScopePkg {
				base := filepath.Base(pass.Fset.Position(g.Pos()).Filename)
				if base != "registry.go" && base != "service.go" {
					return false
				}
			}
			if reason, bad := naked(pass, g, stack); bad {
				pass.Reportf(g.Pos(), "boundedgo: %s; bound the fan-out with a worker loop sized by the admission limit, or guard the launch with a semaphore acquire", reason)
			}
			return false
		})
	}
}

// naked decides whether the go statement is an unbounded launch, and
// says why.
func naked(pass *lintutil.Pass, g *ast.GoStmt, stack []ast.Node) (string, bool) {
	var decl *ast.FuncDecl // where a loop bound's definitions are looked up
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			decl = fd
			break
		}
	}
	// Innermost enclosing loop decides the launch multiplicity.
	for i := len(stack) - 1; i >= 0; i-- {
		var bound ast.Expr
		switch loop := stack[i].(type) {
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[loop.X]
			if !ok || !isInteger(tv.Type) {
				return "goroutine launched per ranged element (the PR 4 fan-out bug shape)", true
			}
			bound = loop.X // for range workers — a counted fan-out
		case *ast.ForStmt:
			if loop.Cond == nil {
				return "goroutine launched inside an unbounded for loop", true
			}
			if bound = loopBound(loop); bound == nil {
				return "goroutine launched inside a loop without a recognizable worker bound", true
			}
		case *ast.FuncDecl, *ast.FuncLit:
			// Reached the enclosing function without a loop: straight-line
			// launch. Require a visible admission guard before it.
			if guardedBefore(pass, stack[i], g) {
				return "", false
			}
			return "naked goroutine launch (one per call of this function, unbounded across calls)", true
		default:
			continue
		}
		if decl == nil || !bounded(pass, decl, bound, map[types.Object]bool{}) {
			return fmt.Sprintf("goroutine fan-out sized by %s, which is not a constant, runtime.GOMAXPROCS/NumCPU, a min(…) of one or an admission width", types.ExprString(bound)), true
		}
		return "", false
	}
	return "naked goroutine launch", true
}

// loopBound extracts the bound of a classic counted loop: B in
// `for i := 0; i < B; i++`, or in `for i := B; i > 0; i--`, which counts
// down from it; nil if the shape doesn't match.
func loopBound(loop *ast.ForStmt) ast.Expr {
	cmp, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch cmp.Op {
	case token.LSS, token.LEQ:
		return cmp.Y
	case token.GTR, token.GEQ:
		if init, ok := loop.Init.(*ast.AssignStmt); ok && len(init.Lhs) == 1 && len(init.Rhs) == 1 {
			return init.Rhs[0]
		}
	}
	return nil
}

// bounded reports whether the loop bound e stays below a bound the request
// data cannot raise (see the package doc). seen breaks cycles through
// variables defined in terms of themselves.
func bounded(pass *lintutil.Pass, decl *ast.FuncDecl, e ast.Expr, seen map[types.Object]bool) bool {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return true // a constant
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return boundedVar(pass, decl, x, seen)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.SUB, token.QUO, token.REM, token.SHR:
			return bounded(pass, decl, x.X, seen) // cannot grow past its left side
		}
		return bounded(pass, decl, x.X, seen) && bounded(pass, decl, x.Y, seen)
	case *ast.CallExpr:
		if pass.TypesInfo.Types[x.Fun].IsType() && len(x.Args) == 1 {
			return bounded(pass, decl, x.Args[0], seen) // a conversion
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "min" {
			if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
				return slices.ContainsFunc(x.Args, func(arg ast.Expr) bool { return bounded(pass, decl, arg, seen) })
			}
		}
		if fn := lintutil.Callee(pass.TypesInfo, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "runtime" {
			return fn.Name() == "GOMAXPROCS" || fn.Name() == "NumCPU"
		}
		name, _ := calleeName(x)
		return acquireRx.MatchString(name) // the width an admission call grants
	}
	return false
}

// boundedVar reports whether id names a variable of decl's body whose
// every definition is a plain assignment of a bounded value. Parameters,
// results, fields and package-level variables are not bounded: their
// values come from outside. Nor is a variable that x += …, x++, a range
// clause or &x writes: it may grow once per pass of a data loop.
func boundedVar(pass *lintutil.Pass, decl *ast.FuncDecl, id *ast.Ident, seen map[types.Object]bool) bool {
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || decl.Body == nil || obj.Pos() < decl.Body.Pos() || obj.Pos() >= decl.Body.End() {
		return false
	}
	if seen[obj] {
		return true // the cycle's other definitions decide
	}
	seen[obj] = true
	is := func(e ast.Expr) bool {
		id, isID := e.(*ast.Ident)
		return isID && pass.TypesInfo.ObjectOf(id) == obj
	}
	ok = true
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				switch {
				case !is(lhs):
				case s.Tok != token.ASSIGN && s.Tok != token.DEFINE:
					ok = false
				case len(s.Rhs) == len(s.Lhs):
					ok = ok && bounded(pass, decl, s.Rhs[i], seen)
				default: // v, err := f(): the call decides
					ok = ok && bounded(pass, decl, s.Rhs[0], seen)
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if pass.TypesInfo.Defs[name] == obj && i < len(s.Values) {
					ok = ok && bounded(pass, decl, s.Values[i], seen)
				}
			}
		case *ast.RangeStmt:
			ok = ok && !is(s.Key) && !is(s.Value)
		case *ast.IncDecStmt:
			ok = ok && !is(s.X)
		case *ast.UnaryExpr:
			ok = ok && (s.Op != token.AND || !is(s.X))
		}
		return ok
	})
	return ok
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// guardedBefore reports whether an admission guard — an Acquire-style
// call or a semaphore channel operation — appears lexically before the
// go statement inside the enclosing function node.
func guardedBefore(pass *lintutil.Pass, fn ast.Node, g *ast.GoStmt) bool {
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
