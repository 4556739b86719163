// Package hotalloc defines an analyzer that forbids allocation in the
// kernel hot paths. The repo's performance contract (README "Performance",
// PR 1's scratch arena) is that steady-state sweeps,
// residuals, transfers, and fused cycle kernels are allocation-free: all
// scratch is checked out of pooled arenas, so a million-solve serving
// process performs zero per-solve garbage. That contract is easy to break
// silently — an innocent `append`, a closure that escapes, a boxing
// `fmt.Sprintf` on a non-panic path — and the regression only shows up as
// GC pressure under production load. hotalloc turns it into a build error.
//
// Scope: packages internal/stencil, internal/transfer, internal/grid, in
// functions reachable (via the intra-package static call graph) from the
// kernel entry points — the Op*/Sweep*/Smooth*/Residual*/Restrict*/
// Interp*/Finish* fused kernels and the grid accessor/norm/pack layer the
// kernels lean on. Flagged inside that set:
//
//   - make, new, append
//   - slice and map composite literals
//   - closures in escaping positions: returned, stored into a
//     struct/slice/map/channel, deferred, or passed to another package —
//     except the sched.Pool dispatch methods (Do, ParallelFor,
//     ParallelForPoints), the sanctioned per-invocation kernel-body
//     closure. Closures bound to local variables or passed to same-package
//     helpers stay on the stack and are not flagged; the escape gate
//     (-gcflags=-m) is the authority on those.
//   - calls into fmt (every fmt call allocates and boxes its operands)
//   - explicit conversions of concrete values to interface types
//     (boxing) — conversions to generic type parameters (T(x)) and the
//     any(x).(Y) type-probe idiom are not boxing and are not flagged
//
// Allocations whose enclosing expression feeds a panic call are exempt:
// guard-path panic formatting is cold by definition.
//
// Setup code that legitimately allocates (pool-miss constructors, panic
// formatting on guard paths) is annotated //mglint:allow hotalloc with a
// justification; the companion escape gate (mgbench -exp escapes) audits
// the compiler's -m output against ESCAPES.allow so annotated sites stay
// accounted for.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"

	"pbmg/internal/analysis/lintutil"
)

var Analyzer = &lintutil.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocation (make/new/append/escaping closures/boxing/fmt) in kernel hot paths reachable from Op*/Sweep* entry points",
	Run:  run,
}

// rootRx names the kernel entry points and the grid accessor layer they
// lean on: fused cycle kernels, sweeps, transfers, norms, pack/unpack,
// and the per-point accessors that sit inside kernel inner loops.
var rootRx = regexp.MustCompile(`^(Op[A-Z]|Sweep|Smooth|Residual|Restrict|Interp|Finish|Apply|Norm|Pack|Unpack|At\d?$|Set\d?$|Row|Plane|Zero|Copy|Add|Scale|Red|Black|Convert)`)

// poolDispatch names the sched.Pool methods whose closure argument is the
// sanctioned per-invocation kernel body.
var poolDispatch = map[string]bool{"Do": true, "ParallelFor": true, "ParallelForPoints": true}

func run(pass *lintutil.Pass) {
	if !lintutil.PkgInScope(pass.Pkg.Path(), "stencil", "transfer", "grid") {
		return
	}
	allow := lintutil.NewAllowIndex(pass, "hotalloc")

	// Collect this package's function declarations keyed by their
	// (uninstantiated) types.Func, then build the intra-package static
	// call graph and mark everything reachable from a kernel root. The
	// declarations are walked in source order, so a function reachable
	// from several roots is always attributed to the first one.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var order []*types.Func
	lintutil.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Body == nil || lintutil.IsTestFile(pass.Fset, fd.Pos()) {
			return
		}
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			decls[fn] = fd
			order = append(order, fn)
		}
	})
	reach := make(map[*types.Func]*types.Func) // fn -> root it is reachable from
	var visit func(fn, root *types.Func)
	visit = func(fn, root *types.Func) {
		if _, seen := reach[fn]; seen {
			return
		}
		fd, ok := decls[fn]
		if !ok {
			return
		}
		reach[fn] = root
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := lintutil.Callee(pass.TypesInfo, call); callee != nil {
				if callee.Pkg() == pass.Pkg {
					visit(origin(callee), root)
				}
			}
			return true
		})
	}
	for _, fn := range order {
		if rootRx.MatchString(decls[fn].Name.Name) {
			visit(fn, fn)
		}
	}

	for _, fn := range order {
		if root, ok := reach[fn]; ok {
			checkBody(pass, allow, decls[fn], root)
		}
	}
}

// origin maps an instantiated generic function back to its declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// checkBody flags the allocation constructs inside one reachable function.
func checkBody(pass *lintutil.Pass, allow *lintutil.AllowIndex, fd *ast.FuncDecl, root *types.Func) {
	report := func(pos ast.Node, what string) {
		if allow.Allowed(pos.Pos()) {
			return
		}
		pass.Reportf(pos.Pos(), "hotalloc: %s in kernel hot path %s (reachable from %s); hoist to setup, use the pooled arena, or annotate //mglint:allow hotalloc with a justification",
			what, fd.Name.Name, root.Name())
	}
	lintutil.WithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if onPanicPath(stack) {
			return true // guard-path panic formatting is cold by definition
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, report, x, stack)
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(x, "slice literal allocation")
				case *types.Map:
					report(x, "map literal allocation")
				}
			}
		case *ast.FuncLit:
			if why, esc := escapingLit(pass, stack); esc {
				report(x, "closure allocation ("+why+")")
			}
		}
		return true
	})
}

// onPanicPath reports whether the node on top of the stack sits inside a
// panic(...) call's arguments.
func onPanicPath(stack []ast.Node) bool {
	for _, n := range stack {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
	}
	return false
}

// escapingLit decides whether the func literal on top of the stack sits
// in an escaping position. Literals bound to local variables or passed to
// same-package helpers stay on the stack (the escape gate audits the
// compiler's actual verdict); literals handed to another package, stored,
// returned, or deferred escape.
func escapingLit(pass *lintutil.Pass, stack []ast.Node) (string, bool) {
	if len(stack) < 2 {
		return "", false
	}
	lit := stack[len(stack)-1]
	switch p := stack[len(stack)-2].(type) {
	case *ast.ReturnStmt:
		return "returned func literal", true
	case *ast.SendStmt:
		return "func literal sent on channel", true
	case *ast.CompositeLit:
		return "func literal stored in composite", true
	case *ast.DeferStmt, *ast.GoStmt:
		return "deferred/spawned func literal", true
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == lit && i < len(p.Lhs) {
				if _, isIdent := ast.Unparen(p.Lhs[i]).(*ast.Ident); !isIdent {
					return "func literal stored through selector/index", true
				}
			}
		}
		return "", false
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == lit {
			return "", false // immediately invoked
		}
		if sel, ok := ast.Unparen(p.Fun).(*ast.SelectorExpr); ok && poolDispatch[sel.Sel.Name] {
			return "", false // sanctioned pool-dispatch kernel body
		}
		callee := lintutil.Callee(pass.TypesInfo, p)
		if callee == nil || callee.Pkg() == pass.Pkg {
			return "", false // dynamic or same-package helper: stays local
		}
		return "func literal escaping to " + callee.Pkg().Name() + "." + callee.Name(), true
	}
	return "", false
}

func checkCall(pass *lintutil.Pass, report func(ast.Node, string), call *ast.CallExpr, stack []ast.Node) {
	fun := ast.Unparen(call.Fun)
	// Builtins: make, new, append.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				report(call, fmt.Sprintf("%s call", b.Name()))
			}
			return
		}
	}
	// Conversions: T(x) where T is an interface and x is concrete —
	// boxing. Type parameters are not interfaces at runtime, and any(x)
	// immediately type-asserted is the zero-cost type-probe idiom.
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		if isBoxingTarget(tv.Type) && len(call.Args) == 1 && !typeProbe(stack) {
			if atv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && !types.IsInterface(atv.Type) && !atv.IsNil() {
				report(call, "boxing conversion to interface")
			}
		}
		return
	}
	// fmt calls: every one allocates and boxes its operands.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			report(call, "fmt."+fn.Name()+" call (allocates and boxes)")
		}
	}
}

// typeProbe reports whether the conversion on top of the stack is
// immediately type-asserted — the any(x).(Y) probe, which the compiler
// resolves without a heap box.
func typeProbe(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	_, ok := stack[len(stack)-2].(*ast.TypeAssertExpr)
	return ok
}

// isBoxingTarget reports whether converting a concrete value to t boxes
// it: t must be a true interface type, not a generic type parameter
// (whose underlying is its constraint interface but which instantiates
// to a concrete type).
func isBoxingTarget(t types.Type) bool {
	if _, isParam := types.Unalias(t).(*types.TypeParam); isParam {
		return false
	}
	return types.IsInterface(t)
}
