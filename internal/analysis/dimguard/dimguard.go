// Package dimguard defines an analyzer that turns the grid package's
// runtime dimension panics into compile-time findings. grid.G is one flat
// type for 2D and 3D (PR 3: dimension is data, not architecture), so the
// 2D-only accessors (At, Set, Row) and the 3D-only ones (At3, Set3, Row3,
// Plane) guard themselves with mustDim panics — a mismatch today costs a
// production crash. When the creating constructor is visible in the same
// function, the mismatch is statically decidable: a value built by
// grid.New3(n) or grid.NewDim(3, …) flowing into At/Row is a bug at
// compile time, not at solve time. transfer.RestrictCoef is 2D-only the
// same way and is checked as a callee.
//
// The analysis is intentionally intra-procedural and single-assignment: a
// variable is tracked only when its sole assignment in the function is a
// dimension-constant grid constructor, so reassignments and flow joins
// never produce false positives.
package dimguard

import (
	"go/ast"
	"go/constant"
	"go/types"

	"pbmg/internal/analysis/lintutil"
)

var Analyzer = &lintutil.Analyzer{
	Name: "dimguard",
	Doc:  "2D-only grid accessors (At/Set/Row, transfer.RestrictCoef) applied to grids built by New3/NewDim(3,…) — and vice versa — are compile-time findings, not runtime panics",
	Run:  run,
}

// accessorDim maps grid accessor method names to the dimension their
// mustDim guard requires.
var accessorDim = map[string]int{
	"At": 2, "Set": 2, "Row": 2,
	"At3": 3, "Set3": 3, "Row3": 3, "Plane": 3,
}

func run(pass *lintutil.Pass) {
	allow := lintutil.NewAllowIndex(pass, "dimguard")
	lintutil.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Body != nil && !lintutil.IsTestFile(pass.Fset, fd.Pos()) {
			checkFunc(pass, allow, fd)
		}
	})
}

func checkFunc(pass *lintutil.Pass, allow *lintutil.AllowIndex, fd *ast.FuncDecl) {
	// Pass 1: candidate vars whose defining assignment is a
	// dimension-constant grid constructor, and a count of all writes to
	// each object so reassigned vars drop out.
	dims := make(map[types.Object]int)    // object -> constructed dimension
	writes := make(map[types.Object]int)  // object -> number of assignments
	ctor := make(map[types.Object]string) // object -> constructor name (diagnostics)
	record := func(id *ast.Ident, rhs ast.Expr) {
		if id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return
		}
		writes[obj]++
		if rhs == nil {
			return
		}
		if dim, name, ok := gridCtorDim(pass.TypesInfo, rhs); ok {
			dims[obj] = dim
			ctor[obj] = name
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				}
				record(id, rhs)
			}
		case *ast.ValueSpec: // var x = grid.New3(n)
			for i, id := range x.Names {
				var rhs ast.Expr
				if len(x.Values) == len(x.Names) {
					rhs = x.Values[i]
				}
				record(id, rhs)
			}
		}
		return true
	})
	for obj := range dims {
		if writes[obj] != 1 {
			delete(dims, obj) // reassigned: flow join, stop tracking
		}
	}
	if len(dims) == 0 {
		return
	}

	// Pass 2: accessor calls on tracked values.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			want, isAccessor := accessorDim[fun.Sel.Name]
			if !isAccessor {
				// transfer.RestrictCoef(dst, src): 2D-only by contract.
				if fun.Sel.Name == "RestrictCoef" && isTransferFunc(pass.TypesInfo, fun) {
					for _, arg := range call.Args {
						reportMismatch(pass, allow, dims, ctor, arg, 2, "transfer.RestrictCoef")
					}
				}
				return true
			}
			if !isGridMethod(pass.TypesInfo, fun) {
				return true
			}
			reportMismatch(pass, allow, dims, ctor, fun.X, want, fun.Sel.Name)
		}
		return true
	})
}

func reportMismatch(pass *lintutil.Pass, allow *lintutil.AllowIndex, dims map[types.Object]int, ctor map[types.Object]string, recv ast.Expr, want int, accessor string) {
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(id)
	got, tracked := dims[obj]
	if !tracked || got == want || allow.Allowed(recv.Pos()) {
		return
	}
	pass.Reportf(recv.Pos(), "dimguard: %dD-only %s on %q, which %s constructed as a %dD grid — this panics at runtime (mustDim)",
		want, accessor, id.Name, ctor[obj], got)
}

// gridCtorDim recognizes grid constructors with a statically known
// dimension: New (2), New3 (3), NewDim/NewOf/FromSlice with a constant
// first argument.
func gridCtorDim(info *types.Info, rhs ast.Expr) (int, string, bool) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return 0, "", false
	}
	fn := lintutil.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || !lintutil.PkgInScope(fn.Pkg().Path(), "grid") {
		return 0, "", false
	}
	switch fn.Name() {
	case "New":
		return 2, "grid.New", true
	case "New3":
		return 3, "grid.New3", true
	case "NewDim", "NewOf", "FromSlice":
		if len(call.Args) == 0 {
			return 0, "", false
		}
		tv, ok := info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			return 0, "", false
		}
		if d, ok := constant.Int64Val(tv.Value); ok && (d == 2 || d == 3) {
			return int(d), "grid." + fn.Name(), true
		}
	}
	return 0, "", false
}

// isGridMethod reports whether the selector resolves to a method on the
// grid package's G type.
func isGridMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return lintutil.PkgInScope(fn.Pkg().Path(), "grid")
}

// isTransferFunc reports whether the selector resolves to a function in
// the transfer package.
func isTransferFunc(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && lintutil.PkgInScope(fn.Pkg().Path(), "transfer")
}
