// Package determinism defines an analyzer that flags nondeterminism
// sources in kernel and reduction code. The repo's tuning premise (the
// paper's: the fastest plan is found by measuring candidates) only holds
// if every measured variant computes the same bits — the serial==parallel
// bit-identity contract the stencil kernels test, and the fixed-chunk
// deterministic reductions behind OpResidualNorm. Three hazards undo it:
//
//   - ranging over a map while accumulating floats: iteration order
//     reshuffles the floating-point association between runs
//   - time.Now / global math/rand calls inside sweep or kernel code:
//     results (or tuned decisions) become run-dependent — explicitly
//     seeded rand.New(rand.NewSource(...)) generators stay legal
//   - parallel reductions that bypass Pool.ParallelForPoints: a func
//     literal handed to Pool.Do / Pool.ParallelFor that compound-assigns
//     a captured float accumulates in scheduling order, not chunk order
//
// Scope: internal/stencil, internal/transfer, internal/grid,
// internal/sched — the kernel and scheduler layers. Measurement code
// (internal/arch, core's timing harness) is out of scope by design:
// timing there is the product, not a hazard.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"pbmg/internal/analysis/lintutil"
)

var Analyzer = &lintutil.Analyzer{
	Name: "determinism",
	Doc:  "flag nondeterminism sources (map-order float accumulation, time/rand, unordered parallel reductions) in kernel code",
	Run:  run,
}

// allowedRandFuncs are the math/rand package-level constructors that
// build explicitly seeded generators; everything else at package level
// draws from the shared global source.
var allowedRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func run(pass *lintutil.Pass) {
	if !lintutil.PkgInScope(pass.Pkg.Path(), "stencil", "transfer", "grid", "sched") {
		return
	}
	allow := lintutil.NewAllowIndex(pass, "determinism")

	report := func(pos token.Pos, msg string) {
		if allow.Allowed(pos) || lintutil.IsTestFile(pass.Fset, pos) {
			return
		}
		pass.Reportf(pos, "determinism: %s", msg)
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, report, x)
			case *ast.CallExpr:
				checkCall(pass, report, x)
			}
			return true
		})
	}
}

// checkMapRange flags `for k, v := range m` over a map whose body
// compound-assigns a floating-point variable declared outside the loop:
// the accumulation order is the map's randomized iteration order.
func checkMapRange(pass *lintutil.Pass, report func(token.Pos, string), rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			obj := lhsObject(pass.TypesInfo, lhs)
			if obj == nil || !isFloat(obj.Type()) {
				continue
			}
			if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
				report(rng.For, "floating-point accumulation over map iteration order; iterate a sorted key slice instead")
				return false
			}
		}
		return true
	})
}

// checkCall flags time.Now/time.Since and global math/rand draws, and
// inspects Pool.Do / Pool.ParallelFor closures for unordered float
// reductions.
func checkCall(pass *lintutil.Pass, report func(token.Pos, string), call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				report(call.Pos(), "time."+fn.Name()+" in kernel code makes results run-dependent; thread timing through the measurement layer")
			}
		case "math/rand", "math/rand/v2":
			// Package-level funcs only: methods on an explicitly seeded
			// *rand.Rand have a receiver and are deterministic.
			if fn.Type().(*types.Signature).Recv() == nil && !allowedRandFuncs[fn.Name()] {
				report(call.Pos(), "global math/rand draw in kernel code; use an explicitly seeded rand.New(rand.NewSource(...))")
			}
		}
	}
	// Pool.Do / Pool.ParallelFor with a reducing closure. ParallelForPoints
	// is the sanctioned deterministic fixed-chunk reduction entry point.
	if sel.Sel.Name != "Do" && sel.Sel.Name != "ParallelFor" {
		return
	}
	if !isSchedPool(pass.TypesInfo, sel.X) {
		return
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		if pos, bad := capturedFloatReduce(pass.TypesInfo, lit); bad {
			report(pos, "parallel reduction accumulates a captured float through Pool."+sel.Sel.Name+" (scheduling-order sum); use Pool.ParallelForPoints with per-chunk partials")
		}
	}
}

// isSchedPool reports whether expr's type is (a pointer to) the sched
// Pool type.
func isSchedPool(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Pool" && lintutil.PkgInScope(named.Obj().Pkg().Path(), "sched")
}

// capturedFloatReduce reports whether the literal's body compound-assigns
// a float variable declared outside the literal.
func capturedFloatReduce(info *types.Info, lit *ast.FuncLit) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			obj := lhsObject(info, lhs)
			if obj == nil || !isFloat(obj.Type()) {
				continue
			}
			if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
				pos, found = as.Pos(), true
				return false
			}
		}
		return true
	})
	return pos, found
}

func lhsObject(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
