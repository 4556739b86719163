package pbmg

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// superpositionBound is the largest ‖solve(b₁+b₂) − solve(b₁) − solve(b₂)‖∞
// TestSolveIsLinear allows, relative to ‖solve(b₁)‖∞ + ‖solve(b₂)‖∞: the
// three solves round differently, by a few units in the last place per
// kernel pass.
const superpositionBound = 1e-12

// TestSolveIsLinear holds the tuned solve to a property of the mathematics,
// not of the solver's own reference cycles. Every kernel a tuned plan runs —
// SOR sweeps, residuals, restriction, interpolation, band solves — is
// linear in the state x (boundary and initial guess) and the right-hand
// side b, and a plan runs a fixed count of each, so a solve is a linear map
// of (x, b):
//
//   - Scaling x and b by α ∈ {2⁻²⁰, −1, 2³⁰} scales the answer by α bit for
//     bit: a product with a power of two or with −1 commutes with every
//     rounding of binary64, away from overflow and subnormals, which these
//     data never reach.
//   - The answer for (x₁+x₂, b₁+b₂) is the sum of the answers, within
//     superpositionBound.
//
// Every family, through Solve (whose FULL-MULTIGRID plans run the V table's
// cells below the finest level), at every tuned accuracy, serial and on a
// 2-worker pool, at the finest tuned size: 2D N = 129 and 3D N = 33, where
// the pool splits the kernels.
func TestSolveIsLinear(t *testing.T) {
	for _, tc := range []struct {
		family Family
		eps    float64
		n      int
	}{
		{FamilyPoisson, 0, 129},
		{FamilyAnisotropic, 0.1, 129},
		{FamilyVarCoef, 2, 129},
		{FamilyPoisson3D, 0, 33},
	} {
		tuned, err := Tune(Options{MaxSize: tc.n, Family: tc.family, Epsilon: tc.eps, Machine: "intel-harpertown", Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "tuned.json")
		err = tuned.Save(path)
		tuned.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2} {
			s, err := Load(path, workers)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%v/workers=%d", tc.family, workers), func(t *testing.T) {
				checkLinear(t, s, tc.n)
			})
			s.Close()
		}
	}
}

func checkLinear(t *testing.T, s *Solver, n int) {
	p1, err := s.NewFamilyProblem(n, Unbiased, 11)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.NewFamilyProblem(n, Unbiased, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range s.Accuracies() {
		// answer solves from (α·x, α·b) and returns the answer.
		answer := func(alpha float64, x, b *Grid) []float64 {
			t.Helper()
			xs, bs := scaled(alpha, x), scaled(alpha, b)
			if err := s.Solve(xs, bs, acc); err != nil {
				t.Fatalf("accuracy %g: %v", acc, err)
			}
			return xs.Data()
		}
		base := answer(1, p1.Boundary, p1.B)
		for _, alpha := range []float64{0x1p-20, -1, 0x1p30} {
			got := answer(alpha, p1.Boundary, p1.B)
			for i, v := range base {
				if math.Float64bits(got[i]) != math.Float64bits(alpha*v) {
					t.Errorf("accuracy %g: scaling by %g moved point %d: %v, want %v", acc, alpha, i, got[i], alpha*v)
					break
				}
			}
		}

		other := answer(1, p2.Boundary, p2.B)
		sum := answer(1, added(p1.Boundary, p2.Boundary), added(p1.B, p2.B))
		var diff, scale float64
		for i := range sum {
			diff = max(diff, math.Abs(sum[i]-base[i]-other[i]))
			scale = max(scale, math.Abs(base[i])+math.Abs(other[i]))
		}
		if diff > superpositionBound*scale {
			t.Errorf("accuracy %g: superposition off by %.3g of the answers' scale, want ≤ %g", acc, diff/scale, superpositionBound)
		}
	}
}

// scaled returns α·g as a new grid.
func scaled(alpha float64, g *Grid) *Grid {
	out := g.Clone()
	for i, v := range out.Data() {
		out.Data()[i] = alpha * v
	}
	return out
}

// added returns g + h as a new grid.
func added(g, h *Grid) *Grid {
	out := g.Clone()
	for i, v := range h.Data() {
		out.Data()[i] += v
	}
	return out
}
