// Package poolput defines an analyzer that enforces the pooled-scratch
// contract: every checkout from a recycling arena must be returned on
// every control-flow path. The contract comes from PR 1 (the Workspace
// scratch arena: checkout/release around every cycle step). A
// missed release never crashes — the sync.Pool quietly re-allocates — so
// the bug class is invisible until a serving process's steady-state
// allocation rate creeps up. poolput makes the leak a build error.
//
// Tracked acquire forms (the value bound by the assignment is tracked):
//
//	v := pool.Get()            // method Get on a sync.Pool
//	v := pool.Get().(*T)       // the usual type-asserted form
//	v := checkout(...)         // the Workspace arena (checkout/checkoutOf)
//	v := acquireX(...)         // anything named acquire*
//
// A tracked value is satisfied by a release — pool.Put(v), release(v),
// releaseOf(ws, v) — executed or deferred. The analysis
// walks the function's CFG from each acquire: a path that reaches a
// return (or falls off the end of the function) without releasing is
// reported. Paths that end in panic are exempt (a deferred release covers
// them; a panicking solve is not steady state). A tracked value that
// escapes — returned, stored into a struct/global, or passed whole to a
// non-release call — transfers the obligation to the receiver and ends
// local tracking, conservatively without a finding.
package poolput

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/cfg"

	"pbmg/internal/analysis/lintutil"
)

var Analyzer = &lintutil.Analyzer{
	Name: "poolput",
	Doc:  "every sync.Pool Get / arena checkout must reach a Put/release on all control-flow paths",
	Run:  run,
}

var acquireNames = map[string]bool{"checkout": true, "checkoutOf": true}
var releaseNames = map[string]bool{"release": true, "releaseOf": true, "put": true}

func run(pass *lintutil.Pass) {
	lintutil.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Body != nil && !lintutil.IsTestFile(pass.Fset, fd.Pos()) {
			checkFunc(pass, pass.CFGs[fd], fd)
		}
	})
}

type acquire struct {
	stmt *ast.AssignStmt // the acquiring assignment
	obj  types.Object    // the tracked variable
	what string          // description of the acquire for the diagnostic
}

func checkFunc(pass *lintutil.Pass, g *cfg.CFG, fd *ast.FuncDecl) {
	if g == nil {
		return
	}
	var acquires []acquire
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals get their own CFG scope; keep v1 intra-decl
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) == 0 || len(as.Rhs) != 1 {
			return true
		}
		call := unwrapCall(as.Rhs[0])
		if call == nil {
			return true
		}
		what, ok := acquireCall(pass.TypesInfo, call)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			acquires = append(acquires, acquire{as, obj, what})
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	// Deferred releases satisfy every path that executes them; collect
	// the objects they cover.
	deferred := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			if obj := releasedObject(pass.TypesInfo, d.Call); obj != nil {
				deferred[obj] = true
			}
		}
		return true
	})

	for _, acq := range acquires {
		if deferred[acq.obj] {
			continue
		}
		if leakPath(pass.TypesInfo, g, acq) {
			pass.Reportf(acq.stmt.Pos(), "poolput: %s checked out into %q is not released on every path to return; add the missing Put/release (a defer right after the checkout is the idiom)",
				acq.what, acq.obj.Name())
		}
	}
}

// unwrapCall digs the call expression out of `pool.Get().(*T)` forms.
func unwrapCall(e ast.Expr) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			return x
		default:
			return nil
		}
	}
}

// acquireCall reports whether call checks a value out of a recycling
// arena, and names the arena for the diagnostic.
func acquireCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	name, recv := calleeNameRecv(info, call)
	switch {
	case name == "Get" && isSyncPool(recv):
		return "sync.Pool value", true
	case acquireNames[name]:
		return "arena scratch (" + name + ")", true
	case strings.HasPrefix(name, "acquire"):
		return "acquired resource (" + name + ")", true
	}
	return "", false
}

// releasedObject returns the tracked object a call releases, or nil.
func releasedObject(info *types.Info, call *ast.CallExpr) types.Object {
	name, recv := calleeNameRecv(info, call)
	isRelease := releaseNames[name] || (name == "Put" && isSyncPool(recv))
	if !isRelease {
		return nil
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && !isIgnorableArg(obj) {
				return obj
			}
		}
	}
	return nil
}

// isIgnorableArg filters release-call arguments that are plumbing, not
// the released value (the workspace receiver in releaseOf(ws, b)).
func isIgnorableArg(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return true
	}
	t := v.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		// Workspaces/pools passed alongside the value are not the value.
		n := named.Obj().Name()
		return n == "Workspace" || n == "Pool"
	}
	return false
}

// calleeNameRecv resolves a call's simple callee name and, for method
// calls, the receiver expression's type.
func calleeNameRecv(info *types.Info, call *ast.CallExpr) (string, types.Type) {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ix.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name, nil
	case *ast.SelectorExpr:
		var recv types.Type
		if tv, ok := info.Types[f.X]; ok {
			recv = tv.Type
		}
		return f.Sel.Name, recv
	}
	return "", nil
}

func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Pool" && named.Obj().Pkg().Path() == "sync"
}

// leakPath walks the CFG from the acquire and reports whether some path
// reaches a function exit with the value still unreleased.
func leakPath(info *types.Info, g *cfg.CFG, acq acquire) bool {
	// Locate the block and node index of the acquiring statement.
	startBlock, startIdx := -1, -1
	for bi, b := range g.Blocks {
		for ni, n := range b.Nodes {
			if n == ast.Node(acq.stmt) {
				startBlock, startIdx = bi, ni
			}
		}
	}
	if startBlock < 0 {
		return false // not in the CFG (dead code)
	}

	type state struct{ block, idx int }
	visited := make(map[int]bool)
	stack := []state{{startBlock, startIdx + 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := g.Blocks[s.block]
		closed := false
		for ni := s.idx; ni < len(b.Nodes) && !closed; ni++ {
			switch classify(info, b.Nodes[ni], acq.obj) {
			case nodeReleases, nodeEscapes:
				closed = true
			}
		}
		if closed {
			continue
		}
		if len(b.Succs) == 0 {
			if b.Kind == cfg.KindUnreachable || endsInPanic(b) {
				continue // panic path: deferred releases cover it
			}
			return true // reached an exit unreleased
		}
		for _, succ := range b.Succs {
			if !visited[int(succ.Index)] {
				visited[int(succ.Index)] = true
				stack = append(stack, state{int(succ.Index), 0})
			}
		}
	}
	return false
}

type nodeClass int

const (
	nodeNeutral nodeClass = iota
	nodeReleases
	nodeEscapes
)

// classify inspects one CFG node for the tracked object: does it release
// it, make it escape (ending tracking), or neither? Reads through
// v.field selectors, v[i] and *v are neutral — using the scratch is the point.
func classify(info *types.Info, n ast.Node, obj types.Object) nodeClass {
	class := nodeNeutral
	lintutil.WithStack(n, func(x ast.Node, stack []ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if releasedObject(info, call) == obj {
				class = nodeReleases
				return false
			}
		}
		id, ok := x.(*ast.Ident)
		if !ok || info.ObjectOf(id) != obj {
			return true
		}
		if class == nodeNeutral && !benignUse(stack) {
			class = nodeEscapes
		}
		return true
	})
	return class
}

// benignUse reports whether the identifier on top of the stack is used in
// a way that keeps the release obligation local: a field/method selector
// on the value, an index into it, or a dereference (the pooled *[]byte
// idiom reads and refills *buf).
func benignUse(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	switch p := stack[len(stack)-2].(type) {
	case *ast.SelectorExpr:
		return p.X == stack[len(stack)-1]
	case *ast.IndexExpr:
		return p.X == stack[len(stack)-1]
	case *ast.StarExpr:
		return true
	}
	return false
}

// endsInPanic reports whether the block's last action is a panic call.
func endsInPanic(b *cfg.Block) bool {
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		n := b.Nodes[i]
		expr, ok := n.(*ast.ExprStmt)
		var call *ast.CallExpr
		if ok {
			call, _ = expr.X.(*ast.CallExpr)
		} else {
			call, _ = n.(*ast.CallExpr)
		}
		if call == nil {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
		return false
	}
	return false
}
