package pbmg

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pbmg/internal/direct"
)

// superpositionBound is the largest ‖solve(b₁+b₂) − solve(b₁) − solve(b₂)‖∞
// TestSolveIsLinear allows, relative to ‖solve(b₁)‖∞ + ‖solve(b₂)‖∞: the
// three solves round differently, by a few units in the last place per
// kernel pass.
const superpositionBound = 1e-12

// linearFixtures are the tuned tables TestSolveIsLinear solves from,
// committed under testdata/tuned as family-N.json. Each is what `mgtune
// -machine intel-harpertown -seed 5 -workers 0 -size N -family F
// [-epsilon ε]` writes, at sizes where a 2-worker pool splits the kernels
// (2D N = 129, 3D N = 33). Solving from committed tables keeps the tuner
// out of the check: a kernel broken enough that its candidates miss their
// targets cannot be routed around by a fresh tune.
var linearFixtures = []struct {
	family Family
	eps    float64
	n      int
}{
	{FamilyPoisson, 0, 129},
	{FamilyAnisotropic, 0.1, 129},
	{FamilyVarCoef, 2, 129},
	{FamilyPoisson3D, 0, 33},
}

func fixturePath(family Family, n int) string {
	return filepath.Join("testdata", "tuned", fmt.Sprintf("%v-%d.json", family, n))
}

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
// cells below the finest level, or at it), at every tuned accuracy, serial
// and on a 2-worker pool, at the finest size of each linearFixtures table.
func TestSolveIsLinear(t *testing.T) {
	for _, tc := range linearFixtures {
		for _, workers := range []int{0, 2} {
			s, err := Load(fixturePath(tc.family, tc.n), workers)
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

// TestLinearFixturesAreFreshTunes: each committed table TestSolveIsLinear
// solves from is, byte for byte, what the tuner writes today for its
// options. A tuner or kernel change that moves a cell fails here, naming
// the table, rather than changing what the linearity check runs; a change
// that means to move cells rewrites the tables with the mgtune command of
// linearFixtures.
func TestLinearFixturesAreFreshTunes(t *testing.T) {
	for _, tc := range linearFixtures {
		t.Run(fmt.Sprintf("%v-%d", tc.family, tc.n), func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(fixturePath(tc.family, tc.n))
			if err != nil {
				t.Fatal(err)
			}
			s, err := Tune(Options{MaxSize: tc.n, Family: tc.family, Epsilon: tc.eps, Machine: "intel-harpertown", Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			path := filepath.Join(t.TempDir(), "tuned.json")
			if err := s.Save(path); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("a fresh tune differs from %s:\n%s", fixturePath(tc.family, tc.n), got)
			}
		})
	}
}

// TestTunedVarCoefMeetsExactAnswer holds the tuned varcoef solve to the
// exact discrete answer rather than to the solver's own reference cycles:
// solving at N = 33 and 65 from the committed varcoef-129 table, on the
// table's re-built coarse levels all the way down, each tuned accuracy is
// met by the paper's metric ‖x₀ − x*‖ / ‖x − x*‖, with x* from the band
// solver (direct's dense tests check it against elimination), serial and
// on a 2-worker pool.
func TestTunedVarCoefMeetsExactAnswer(t *testing.T) {
	for _, workers := range []int{0, 2} {
		s, err := Load(fixturePath(FamilyVarCoef, 129), workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{33, 65} {
			t.Run(fmt.Sprintf("N=%d/workers=%d", n, workers), func(t *testing.T) {
				p, err := s.NewFamilyProblem(n, Unbiased, 13)
				if err != nil {
					t.Fatal(err)
				}
				if want := s.Workspace().Operator().At(n); p.Op != want {
					t.Fatalf("the problem holds operator %p, the table's At(%d) is %p", p.Op, n, want)
				}
				exact := p.NewState()
				direct.NewInteriorSolver(p.Op, n).Solve(exact, p.B, p.H)
				p.SetOptimal(exact)
				for _, acc := range s.Accuracies() {
					x := p.NewState()
					if err := s.Solve(x, p.B, acc); err != nil {
						t.Fatalf("accuracy %g: %v", acc, err)
					}
					if got := p.AccuracyOf(x); got < acc {
						t.Errorf("accuracy %g: the exact discrete answer grades the solve %.3g", acc, got)
					}
				}
			})
		}
		s.Close()
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
