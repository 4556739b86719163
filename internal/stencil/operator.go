// Operator families generalize the solver beyond the constant-coefficient
// Laplacian: an Operator value travels with the problem through the
// multigrid hierarchy and selects, per family, the row kernels every entry
// point of this package runs (rows.go, bound by fused.go's rowOps).
//
//   - FamilyPoisson: T = −∇², the paper's operator.
//   - FamilyAnisotropic: T = −(ε·∂²/∂x² + ∂²/∂y²) with constant ε > 0. The
//     5-point stencil keeps weight 1 on vertical neighbours and ε on
//     horizontal ones (x runs along rows, i.e. the column index j).
//   - FamilyVarCoef: T = −∇·(c∇u) for a positive nodal coefficient field
//     c(x, y), discretized with harmonic-free arithmetic face averages
//     c_face = (c_node + c_neighbour)/2 — the standard cell-face scheme that
//     keeps the operator symmetric positive definite.
//   - FamilyPoisson3D: T = −∇² on an N×N×N cube with the 7-point stencil —
//     the paper's headline scaling case. Operators know their spatial
//     dimension (Dim); mixing a 3D operator with 2D grids (or vice versa)
//     fails loudly in the grid accessors.
//
// An operator is its key. NewOperator hands out the one live operator of a
// (family, parameter, N) per process, from a weakly held index, so every
// tuner, loaded table and problem of one key shares one pointer — for a
// variable-coefficient family one coefficient field.
//
// Coarse-grid re-discretization: Coarse() returns the operator for the next
// multigrid level. Constant-coefficient families are scale-invariant and
// return themselves; a variable-coefficient operator's coarse level is
// NewOperator at the coarser side, which re-evaluates the analytic field at
// nodes that coincide with fine ones (h = 1/2^k, so bit for bit what
// injection would give). The link is memoized and strong, so a hierarchy is
// built once per process, its levels are the operators NewOperator hands
// out for their own keys, and a coarse level lives as long as any finer one.
package stencil

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"weak"

	"pbmg/internal/faultinject"
	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// Family enumerates the supported operator families.
type Family uint8

const (
	// FamilyPoisson is the constant-coefficient Laplacian −∇².
	FamilyPoisson Family = iota
	// FamilyAnisotropic is −(ε·∂²/∂x² + ∂²/∂y²) with constant ε.
	FamilyAnisotropic
	// FamilyVarCoef is −∇·(c∇u) with a positive nodal coefficient field.
	FamilyVarCoef
	// FamilyPoisson3D is the constant-coefficient 3D Laplacian −∇² on a
	// cube, discretized with the 7-point stencil.
	FamilyPoisson3D
)

// String returns the canonical family name used in configuration files and
// CLI flags.
func (f Family) String() string {
	switch f {
	case FamilyPoisson:
		return "poisson"
	case FamilyAnisotropic:
		return "aniso"
	case FamilyVarCoef:
		return "varcoef"
	case FamilyPoisson3D:
		return "poisson3d"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// Dim returns the family's spatial dimension (2 or 3).
func (f Family) Dim() int {
	if f == FamilyPoisson3D {
		return 3
	}
	return 2
}

// ParseFamily parses a family name (as produced by String, with a few
// forgiving aliases).
func ParseFamily(s string) (Family, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "poisson", "laplace", "isotropic":
		return FamilyPoisson, nil
	case "aniso", "anisotropic":
		return FamilyAnisotropic, nil
	case "varcoef", "variable", "variable-coefficient":
		return FamilyVarCoef, nil
	case "poisson3d", "poisson-3d", "laplace3d", "3d":
		return FamilyPoisson3D, nil
	default:
		return 0, fmt.Errorf("stencil: unknown operator family %q (want poisson, aniso, varcoef, or poisson3d)", s)
	}
}

// Operator is one member of an operator family, instantiated — for the
// variable-coefficient family — at a specific grid size. Operators are
// immutable after construction and safe for concurrent use; the coarse-grid
// operator is derived once and cached. An operator is fixed by its family,
// parameter and size, so a process holds one per key: NewOperator hands
// every holder the same pointer. Only an operator on a caller's own
// coefficient field (VarCoefOperator) is private to its caller, and it is
// single-level.
type Operator struct {
	family Family
	// eps is the family parameter: the anisotropy ratio ε for
	// FamilyAnisotropic, the log-contrast σ of the built-in coefficient
	// field for FamilyVarCoef, and 1 for FamilyPoisson.
	eps float64
	// coef is the nodal coefficient field (FamilyVarCoef only).
	coef *grid.Grid
	// interned marks an operator NewOperator built: only those coarsen,
	// since only their field is CoefField, re-evaluable at a coarser side.
	interned bool

	coarseOnce sync.Once
	coarse     *Operator

	// coef32 memoizes the coefficient field converted to float32
	// (FamilyVarCoef only), so the mixed-precision kernels read a
	// half-width field instead of converting per sweep.
	coef32Once sync.Once
	coef32     *grid.Grid32
}

var poissonOp = &Operator{family: FamilyPoisson, eps: 1}

// Poisson returns the constant-coefficient Laplacian operator. The returned
// value is shared; it is valid at every grid size.
func Poisson() *Operator { return poissonOp }

var poisson3dOp = &Operator{family: FamilyPoisson3D, eps: 1}

// Poisson3D returns the constant-coefficient 3D Laplacian operator. The
// returned value is shared; it is valid at every grid size.
func Poisson3D() *Operator { return poisson3dOp }

// Anisotropic returns the operator −(ε·∂²/∂x² + ∂²/∂y²), the one live
// operator for ε (see NewOperator). ε must be positive; ε = 1 is the
// Laplacian (kept under its own family label). Valid at every grid size.
func Anisotropic(eps float64) *Operator {
	if !(eps > 0) || math.IsInf(eps, 1) {
		panic(fmt.Sprintf("stencil: anisotropy ε must be positive and finite, got %v", eps))
	}
	return intern(operatorKey{f: FamilyAnisotropic, eps: eps})
}

// VarCoefOperator returns the operator −∇·(c∇u) for the given positive nodal
// coefficient field. eps records the field's contrast parameter for
// provenance (use 0 for user-supplied fields). The operator is private to
// its caller and single-level: valid at grid size coef.N() only, so Coarse,
// and At below that side, panic rather than coarsen onto some other field.
// NewOperator builds the multigrid hierarchy of the package's own field.
func VarCoefOperator(coef *grid.Grid, eps float64) *Operator {
	for i := 0; i < coef.N(); i++ {
		for j := 0; j < coef.N(); j++ {
			if !(coef.At(i, j) > 0) {
				panic(fmt.Sprintf("stencil: coefficient field must be positive; c[%d,%d]=%v", i, j, coef.At(i, j)))
			}
		}
	}
	return &Operator{family: FamilyVarCoef, eps: eps, coef: coef}
}

// CoefField builds the package's canonical smooth positive coefficient field
// c(x, y) = exp(σ·sin(2πx)·sin(2πy)) on an n×n grid: contrast e^(2σ) between
// the strongest and weakest regions, analytic so that injection to a coarse
// grid equals re-evaluation at the coarse nodes, bit for bit: h = 1/2^k, so
// every node coordinate is exact at every level.
func CoefField(n int, sigma float64) *grid.Grid {
	c := grid.New(n)
	h := 1.0 / float64(n-1)
	for i := 0; i < n; i++ {
		y := float64(i) * h
		row := c.Row(i)
		for j := 0; j < n; j++ {
			x := float64(j) * h
			row[j] = math.Exp(sigma * math.Sin(2*math.Pi*x) * math.Sin(2*math.Pi*y))
		}
	}
	return c
}

// NewOperator returns the one live operator of family f at grid side n. eps
// is the anisotropy ratio (FamilyAnisotropic) or the coefficient-field
// contrast σ (FamilyVarCoef); it is ignored for the Poisson families, whose
// operators are package singletons. Every caller that asks for the same key
// — varcoef (σ, n), aniso ε, valid at every side — gets the same pointer
// while any holder keeps it, so a coefficient field, its float32 copy and
// its coarse hierarchy are built once per process; a varcoef operator's
// coarse levels are themselves NewOperator's operators for their sides.
// Concurrent first calls for one key build one operator.
func NewOperator(f Family, eps float64, n int) (*Operator, error) {
	switch f {
	case FamilyPoisson:
		return Poisson(), nil
	case FamilyPoisson3D:
		return Poisson3D(), nil
	case FamilyAnisotropic:
		if !(eps > 0) || math.IsInf(eps, 1) {
			return nil, fmt.Errorf("stencil: anisotropy ε must be positive and finite, got %v", eps)
		}
		return Anisotropic(eps), nil
	case FamilyVarCoef:
		if !(eps > 0) || math.IsInf(eps, 1) {
			return nil, fmt.Errorf("stencil: coefficient contrast σ must be positive and finite, got %v", eps)
		}
		if grid.Level(n) < 1 {
			return nil, fmt.Errorf("stencil: varcoef operator needs a 2^k+1 grid side, got %d", n)
		}
		return intern(operatorKey{f: FamilyVarCoef, eps: eps, n: n}), nil
	default:
		return nil, fmt.Errorf("stencil: unknown family %v", f)
	}
}

// operatorKey names an interned operator: its family, parameter and grid
// side (0 for families valid at every side).
type operatorKey struct {
	f   Family
	eps float64
	n   int
}

// operators indexes the interned operators, under operatorsMu. An entry
// holds its operator weakly, so the index never keeps one alive; the
// operator's cleanup removes the entry once the last holder lets go.
var (
	operatorsMu sync.Mutex
	operators   = make(map[operatorKey]weak.Pointer[Operator])
)

// intern returns the live operator for a validated key, building it under
// operatorsMu if no holder keeps one.
func intern(key operatorKey) *Operator {
	operatorsMu.Lock()
	defer operatorsMu.Unlock()
	if op := operators[key].Value(); op != nil {
		return op
	}
	var op *Operator
	if key.f == FamilyVarCoef {
		op = VarCoefOperator(CoefField(key.n, key.eps), key.eps)
	} else {
		op = &Operator{family: key.f, eps: key.eps}
	}
	op.interned = true
	operators[key] = weak.Make(op)
	runtime.AddCleanup(op, dropOperator, key)
	return op
}

// dropOperator is a dead operator's cleanup: it removes key's entry unless
// a rebuilt operator for the key, still live, has replaced it.
func dropOperator(key operatorKey) {
	operatorsMu.Lock()
	defer operatorsMu.Unlock()
	if operators[key].Value() == nil {
		delete(operators, key)
	}
}

// Family returns the operator's family.
func (op *Operator) Family() Family { return op.family }

// Dim returns the operator's spatial dimension (2 or 3). Every layer above
// the kernels — workspaces, problems, reference solutions, tuning — derives
// its grid shapes from this value.
func (op *Operator) Dim() int { return op.family.Dim() }

// Eps returns the family parameter (ε or σ; 1 for Poisson).
func (op *Operator) Eps() float64 { return op.eps }

// Coef returns the nodal coefficient field, or nil for constant-coefficient
// families.
func (op *Operator) Coef() *grid.Grid { return op.coef }

// Coef32 returns the nodal coefficient field converted to float32, or nil
// for constant-coefficient families. The conversion is computed once per
// operator and shared.
func (op *Operator) Coef32() *grid.Grid32 {
	if op.coef == nil {
		return nil
	}
	op.coef32Once.Do(func() {
		c := grid.NewOf[float32](op.coef.Dim(), op.coef.N())
		grid.ConvertInto(c, op.coef)
		op.coef32 = c
	})
	return op.coef32
}

// opCoef resolves the operator's coefficient field at the kernel's storage
// precision: the original field for float64, the memoized converted copy
// for float32.
func opCoef[T grid.Float](op *Operator) *grid.G[T] {
	var z T
	if _, is32 := any(z).(float32); is32 {
		return any(op.Coef32()).(*grid.G[T])
	}
	return any(op.coef).(*grid.G[T])
}

// String names the operator with its parameter, e.g. "aniso(eps=0.01)".
func (op *Operator) String() string {
	switch op.family {
	case FamilyPoisson:
		return "poisson"
	case FamilyPoisson3D:
		return "poisson3d"
	case FamilyAnisotropic:
		return fmt.Sprintf("aniso(eps=%g)", op.eps)
	default:
		return fmt.Sprintf("varcoef(sigma=%g)", op.eps)
	}
}

// Coarse returns the operator re-discretized on the next-coarser multigrid
// level. Constant-coefficient operators are size-independent and return
// themselves; a variable-coefficient operator's coarse level is NewOperator
// at the coarser side, looked up once and then held. It panics for an
// operator on a caller's own field (VarCoefOperator), which is single-level.
func (op *Operator) Coarse() *Operator {
	if op.coef == nil {
		return op
	}
	if !op.interned {
		panic(fmt.Sprintf("stencil: varcoef operator on a caller's own N=%d field is single-level and has no coarse level (build it with NewOperator)", op.coef.N()))
	}
	op.coarseOnce.Do(func() {
		op.coarse = intern(operatorKey{f: FamilyVarCoef, eps: op.eps, n: grid.Coarsen(op.coef.N())})
	})
	return op.coarse
}

// At resolves the operator for grid size n: constant-coefficient operators
// serve every size directly, while variable-coefficient operators walk the
// memoized coarse hierarchy down from their discretization size. It panics
// if n is finer than the operator's field or not reachable by coarsening,
// and below its side for an operator on a caller's own field.
func (op *Operator) At(n int) *Operator {
	if op.coef == nil {
		return op
	}
	cur := op
	for cur.coef.N() > n && cur.coef.N() > 3 {
		cur = cur.Coarse()
	}
	if cur.coef.N() != n {
		panic(fmt.Sprintf("stencil: operator discretized at N=%d cannot serve N=%d", op.coef.N(), n))
	}
	return cur
}

// FaceCoefs returns the four face coefficients of the 5-point stencil at
// grid point (i, j): north (toward row i−1), south (row i+1), west (column
// j−1), east (column j+1). The center coefficient is their sum. (i, j) must
// be an interior point for variable-coefficient operators. FaceCoefs is
// 2D-only; 3D operators have the constant 7-point stencil and panic here.
func (op *Operator) FaceCoefs(i, j int) (cn, cs, cw, ce float64) {
	switch op.family {
	case FamilyPoisson:
		return 1, 1, 1, 1
	case FamilyAnisotropic:
		return 1, 1, op.eps, op.eps
	case FamilyPoisson3D:
		panic("stencil: FaceCoefs is 2D-only; poisson3d has the constant 7-point stencil")
	default:
		c := op.coef
		cc := c.At(i, j)
		return 0.5 * (cc + c.At(i-1, j)), 0.5 * (cc + c.At(i+1, j)),
			0.5 * (cc + c.At(i, j-1)), 0.5 * (cc + c.At(i, j+1))
	}
}

// OmegaSmooth returns the in-cycle smoothing weight for the operator — the
// per-family counterpart of the paper's fixed ω = 1.15 (§2.3).
//
//   - Poisson: 1.15, the paper's experimentally chosen value.
//   - Anisotropic: 1 + 0.15·min(ε, 1/ε). Point smoothers lose their
//     smoothing power in the weakly coupled direction as ε departs from 1,
//     and over-relaxation amplifies the rough modes they leave behind, so
//     the weight decays toward plain Gauss-Seidel for strong anisotropy.
//   - Variable-coefficient: 1.10, mildly damped from the paper's value so
//     the sweep stays robust across coefficient jumps.
func (op *Operator) OmegaSmooth() float64 {
	switch op.family {
	case FamilyAnisotropic:
		r := op.eps
		if r > 1 {
			r = 1 / r
		}
		return 1 + 0.15*r
	case FamilyVarCoef:
		return 1.10
	default:
		return OmegaRecurse
	}
}

// checkSize verifies a kernel argument matches the coefficient field.
func (op *Operator) checkSize(n int) {
	if op.coef != nil && op.coef.N() != n {
		panic(fmt.Sprintf("stencil: operator at N=%d applied to grid of N=%d (resolve with At)", op.coef.N(), n))
	}
}

// OpSORSweepRB performs one full red-black SOR sweep for op (red half-sweep
// then black half-sweep) in place on x with relaxation weight omega. Points
// are coloured by coordinate-sum parity; within a colour all updates are
// independent, so a pooled sweep is bit-identical to a serial one.
func OpSORSweepRB[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T) {
	if faultinject.Enabled {
		// The slow-kernel injection point: every plain SOR sweep — in-cycle
		// smoothing, the iterative shortcut, the unfused oracle — runs
		// through here, so an armed delay stretches any solve.
		faultinject.Point("stencil.sweep")
	}
	k := bindRows(op, pool, x, b, nil, h, omega)
	k.sweep()
}

// OpResidual computes r = b − T·x on interior points and zeroes r's
// boundary. r must not alias x or b.
func OpResidual[T grid.Float](op *Operator, pool *sched.Pool, r, x, b *grid.G[T], h T) {
	// No sweep here, so the binding's relaxation weight is never read.
	k := bindRows(op, pool, x, b, r, h, 0)
	k.residualGrid()
}

// OpResidualNorm returns ‖b − T·x‖₂ over interior points. The reduction
// accumulates fixed per-row (2D) or per-plane (3D) partial sums in float64,
// whatever the storage precision, and adds them in index order, so the
// result is run-to-run deterministic and identical for a nil pool and any
// worker count.
func OpResidualNorm[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h T) float64 {
	// No sweep here, so the binding's relaxation weight is never read.
	k := bindRows(op, pool, x, b, nil, h, 0)
	return k.residualNorm()
}

// OpDownstroke is the composed V-cycle downstroke, mirroring OpUpstroke: one
// red-black SOR sweep on x, then the full-weighting restriction of the
// post-sweep residual into coarse — without a separate residual pass, in a
// single traversal of the fine grids unless the pool splits them (see
// fused.go). Both half-sweeps emit residuals from their update deltas into r,
// a fix-up completes the red ones, and the restriction consumes finished
// units; after the call r holds the post-sweep residual with a zero
// boundary. scratch is a grid of x's size whose contents are clobbered: the
// 3D restriction window is carved from it, so the call allocates nothing. x
// is bit-identical to OpSORSweepRB; coarse matches the unfused OpSORSweepRB +
// OpResidual + transfer.Restrict chain to floating-point association (≤1e-12
// of the data scale). r and scratch must not alias x, b, coarse or each other.
func OpDownstroke[T grid.Float](op *Operator, pool *sched.Pool, coarse, x, b, r, scratch *grid.G[T], h, omega T) {
	if faultinject.Enabled {
		// The fused downstroke carries the cycle's smoothing sweep, so the
		// slow-kernel injection covers it alongside the plain SOR paths.
		faultinject.Point("stencil.sweep")
	}
	k := bindRows(op, pool, x, b, r, h, omega)
	k.bindGather()
	k.smoothResidual(coarse, scratch)
}

// OpSmoothResidualRestrict is OpDownstroke with no scratch to offer: in 3D it
// allocates its restriction window per call (per chunk when pooled). Only
// bench/ and the test oracles call it.
func OpSmoothResidualRestrict[T grid.Float](op *Operator, pool *sched.Pool, coarse, x, b, r *grid.G[T], h, omega T) {
	OpDownstroke(op, pool, coarse, x, b, r, nil, h, omega)
}

// OpResidualRestrict computes the full-weighting restriction of b − T·x into
// coarse directly from (x, b) — the fused downstroke for cycles whose
// residual is not preceded by a smoothing sweep (full-multigrid estimation).
// r and scratch are grids of x's size whose contents are clobbered: residual
// units pass through r (serially only its first three, so the fine residual
// grid is never streamed) and the 3D restriction window is carved from
// scratch. The result matches OpResidual followed by transfer.Restrict to
// floating-point association (the 3D weights are applied separably).
func OpResidualRestrict[T grid.Float](op *Operator, pool *sched.Pool, coarse, x, b, r, scratch *grid.G[T], h T) {
	// No sweep here, so the binding's relaxation weight is never read.
	k := bindRows(op, pool, x, b, r, h, 0)
	k.residualRestrict(coarse, scratch)
}
