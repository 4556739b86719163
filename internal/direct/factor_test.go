package direct

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/stencil"
)

// factorRowAtATime is the factorization loop Factor ran before it interleaved
// four rows' reductions: one dependent chain per entry, through the at/set
// accessors. Kept as Factor's oracle — the interleaved loop must store the
// same bits and stop at the same pivot.
func factorRowAtATime(m *BandMatrix) error {
	n, bw := m.n, m.bandwidth
	for j := 0; j < n; j++ {
		lo := max(0, j-bw)
		s := m.at(j, 0)
		for k := lo; k < j; k++ {
			l := m.at(j, j-k)
			s -= l * l
		}
		if s <= 0 || math.IsNaN(s) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(s)
		m.set(j, 0, ljj)
		for i := j + 1; i <= min(j+bw, n-1); i++ {
			s := m.at(i, i-j)
			for k := max(0, i-bw); k < j; k++ {
				s -= m.at(i, i-k) * m.at(j, j-k)
			}
			m.set(i, i-j, s/ljj)
		}
	}
	m.factored = true
	return nil
}

// assertFactorsAlike factors a copy of a with the oracle and checks Factor's
// error and every stored value against it, bit for bit.
func assertFactorsAlike(t *testing.T, what string, a *BandMatrix) {
	t.Helper()
	o := &BandMatrix{n: a.n, bandwidth: a.bandwidth, w: a.w, data: append([]float64(nil), a.data...)}
	wantErr, err := factorRowAtATime(o), a.Factor()
	if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Factor error %v, row-at-a-time loop %v", what, err, wantErr)
	}
	if a.factored != o.factored {
		t.Fatalf("%s: factored = %v, want %v", what, a.factored, o.factored)
	}
	for k, want := range o.data {
		if math.Float64bits(a.data[k]) != math.Float64bits(want) {
			t.Fatalf("%s: entry (row %d, dist %d) = %v, row-at-a-time loop stores %v", what, k/a.w, k%a.w, a.data[k], want)
		}
	}
}

// TestFactorMatchesRowAtATimeLoop: on the matrices the solver constructors
// assemble, the interleaved Factor is the old loop to the bit, at every grid side a direct plan can meet (each changes how the
// column's rows split into groups of four and a tail), on constant and
// variable coefficients, in 2D and 3D — and on a matrix that is not positive
// definite, where both must stop at the same pivot with the same partial
// factor.
func TestFactorMatchesRowAtATimeLoop(t *testing.T) {
	max2, max3 := 129, 17
	if testing.Short() {
		max2, max3 = 33, 9
	}
	for n := 3; n <= max2; n++ {
		assertFactorsAlike(t, "poisson", assembleBand(stencil.Poisson(), n))
		if n <= 33 {
			assertFactorsAlike(t, "varcoef", assembleBand(stencil.VarCoefOperator(stencil.CoefField(n, 2), 2), n))
		}
	}
	for n := 5; n <= max3; n++ {
		assertFactorsAlike(t, "poisson3d", assembleBand(stencil.Poisson3D(), n))
	}
	for _, pivot := range []int{0, 1, 7, 100, 223, 224} {
		a := assembleBand(stencil.Poisson(), 17)
		a.Set(pivot, pivot, -4)
		assertFactorsAlike(t, "indefinite", a)
		if a.factored {
			t.Fatalf("pivot %d: an indefinite matrix factored", pivot)
		}
	}
}

// TestSharedSolverConcurrentSolves: a cached solver is one object for every
// goroutine that solves at its size, and since each Solve borrows its
// right-hand side from a pool on the factored matrix, concurrent solves must
// each get their own: every answer equals the one a private solver gives.
func TestSharedSolverConcurrentSolves(t *testing.T) {
	for _, shared := range []*InteriorSolver{NewInteriorSolver(stencil.Poisson(), 17), NewInteriorSolver(stencil.Poisson3D(), 9)} {
		n, dim := shared.n, shared.op.Dim()
		h := 1 / float64(n-1)
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for range 20 {
					x, b := grid.NewDim(dim, n), grid.NewDim(dim, n)
					for i := range b.Data() {
						b.Data()[i], x.Data()[i] = rng.NormFloat64(), rng.NormFloat64()
					}
					want := x.Clone()
					shared.Solve(x, b, h)
					NewInteriorSolver(shared.op, n).Solve(want, b, h)
					for i, v := range want.Data() {
						if x.Data()[i] != v {
							t.Errorf("goroutine %d: shared solver's x[%d] = %v, a private solver's %v", g, i, x.Data()[i], v)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
