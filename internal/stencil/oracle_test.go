package stencil

import (
	"fmt"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// The package's oracles. Each kernel below is written point by point over a
// grid's flat storage, with the operands of every point in the order the row
// kernels must keep, and exists only here: the production entry points must
// reproduce them bit for bit (refSweep, refResidual) or — the
// operator apply, which no production path needs — serve as the independent
// statement of T that the residual is checked against.
//
// A point's neighbours sit at flat offsets ±1 (west/east along the row), ±n
// (up/down in 2D; north/south within the plane in 3D) and, in 3D, ±n² (up/down
// across planes).

// forInterior visits the flat index of every interior point of a dim-D grid of
// side n in storage order, with its colour (0 red: coordinate sum even).
func forInterior(dim, n int, visit func(idx, colour int)) {
	if dim == 3 {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				for k := 1; k < n-1; k++ {
					visit((i*n+j)*n+k, (i+j+k)&1)
				}
			}
		}
		return
	}
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			visit(i*n+j, (i+j)&1)
		}
	}
}

// refFaces returns the face coefficients of the variable-coefficient stencil
// at point idx of a 2D grid of side n: north, south, west, east.
func refFaces[T grid.Float](c []T, n, idx int) (cn, cs, cw, ce T) {
	cc := c[idx]
	return 0.5 * (cc + c[idx-n]), 0.5 * (cc + c[idx+n]), 0.5 * (cc + c[idx-1]), 0.5 * (cc + c[idx+1])
}

// refApplyAt returns (T·x) at interior point idx.
func refApplyAt[T grid.Float](op *Operator, x []T, n, idx int, h T) T {
	inv := 1 / (h * h)
	west, east := x[idx-1], x[idx+1]
	if op.family == FamilyPoisson3D {
		p := n * n
		return (6*x[idx] - x[idx-p] - x[idx+p] - x[idx-n] - x[idx+n] - west - east) * inv
	}
	up, down := x[idx-n], x[idx+n]
	switch op.family {
	case FamilyPoisson:
		return (4*x[idx] - up - down - west - east) * inv
	case FamilyAnisotropic:
		cx, cy := T(op.eps), T(1)
		center := 2 * (cx + cy)
		return (center*x[idx] - cy*(up+down) - cx*(west+east)) * inv
	default:
		cn, cs, cw, ce := refFaces(opCoef[T](op).Data(), n, idx)
		return ((cn+cs+cw+ce)*x[idx] - cn*up - cs*down - cw*west - ce*east) * inv
	}
}

// refGaussSeidelAt returns the Gauss-Seidel average at interior point idx:
// the value that zeroes the point's residual given its neighbours.
func refGaussSeidelAt[T grid.Float](op *Operator, x, b []T, n, idx int, h T) T {
	h2 := h * h
	west, east := x[idx-1], x[idx+1]
	if op.family == FamilyPoisson3D {
		p := n * n
		return (x[idx-p] + x[idx+p] + x[idx-n] + x[idx+n] + west + east + h2*b[idx]) * (1.0 / 6.0)
	}
	up, down := x[idx-n], x[idx+n]
	switch op.family {
	case FamilyPoisson:
		return (up + down + west + east + h2*b[idx]) * 0.25
	case FamilyAnisotropic:
		cx, cy := T(op.eps), T(1)
		invC := 1 / (2 * (cx + cy))
		return (cy*(up+down) + cx*(west+east) + h2*b[idx]) * invC
	default:
		cn, cs, cw, ce := refFaces(opCoef[T](op).Data(), n, idx)
		return (cn*up + cs*down + cw*west + ce*east + h2*b[idx]) / (cn + cs + cw + ce)
	}
}

// refSweep is one red-black SOR sweep in pass order: every red point, then
// every black one.
func refSweep[T grid.Float](op *Operator, x, b *grid.G[T], h, omega T) {
	xd, bd, n := x.Data(), b.Data(), x.N()
	for colour := 0; colour <= 1; colour++ {
		forInterior(x.Dim(), n, func(idx, c int) {
			if c == colour {
				xd[idx] += omega * (refGaussSeidelAt(op, xd, bd, n, idx, h) - xd[idx])
			}
		})
	}
}

// refResidual writes r = b − T·x on the interior and zeroes r's boundary.
func refResidual[T grid.Float](op *Operator, r, x, b *grid.G[T], h T) {
	r.Zero()
	rd, xd, bd, n := r.Data(), x.Data(), b.Data(), x.N()
	forInterior(x.Dim(), n, func(idx, _ int) {
		rd[idx] = bd[idx] - refApplyAt(op, xd, n, idx, h)
	})
}

// refApply writes y = T·x on the interior and zeroes y's boundary.
func refApply[T grid.Float](op *Operator, y, x *grid.G[T], h T) {
	y.Zero()
	yd, xd, n := y.Data(), x.Data(), x.N()
	forInterior(x.Dim(), n, func(idx, _ int) {
		yd[idx] = refApplyAt(op, xd, n, idx, h)
	})
}

// TestSingleStageKernelsMatchOracles pins OpResidual, which runs on the
// shared row kernels, to the point-by-point oracle above: bit for
// bit, in every family and precision, serially and on pools that split the
// grid and pools that do not, with a non-zero Dirichlet boundary and output
// grids that start dirty.
func TestSingleStageKernelsMatchOracles(t *testing.T) {
	var pools []*sched.Pool
	for _, w := range []int{1, 3} {
		p := sched.NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	for _, tc := range wavefrontFamilies() {
		for _, n := range tc.ns {
			op := tc.mk(n)
			t.Run(fmt.Sprintf("%s/n%d/f64", tc.name, n), func(t *testing.T) {
				checkSingleStage[float64](t, op, n, pools)
			})
			t.Run(fmt.Sprintf("%s/n%d/f32", tc.name, n), func(t *testing.T) {
				checkSingleStage[float32](t, op, n, pools)
			})
		}
	}
}

func checkSingleStage[T grid.Float](t *testing.T, op *Operator, n int, pools []*sched.Pool) {
	src := splitmix(7*n + op.Dim())
	dim := op.Dim()
	x, b := randomOf[T](&src, dim, n), randomOf[T](&src, dim, n)
	h := T(1 / float64(n-1))
	const junk = 7

	wantR := grid.NewOf[T](dim, n)
	refResidual(op, wantR, x, b, h)
	for i, pool := range append([]*sched.Pool{nil}, pools...) {
		how := "serial"
		if pool != nil {
			how = fmt.Sprintf("pool %d", i-1)
		}
		r := filledOf[T](dim, n, junk)
		OpResidual(op, pool, r, x, b, h)
		assertSameBits(t, r, wantR, "OpResidual vs oracle, "+how)
	}
}
