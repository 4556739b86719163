package pbmg

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// skipUnderRace skips a test that asserts pooled scratch is reused: a -race
// build's sync.Pool drops a quarter of its Puts by design, so every pool
// misses now and then and the assertion cannot hold.
func skipUnderRace(t *testing.T) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("sync.Pool drops Puts at random under the race detector")
		}
	}
}

// TestSolveSteadyStateAllocates: after two warm-up solves have filled the
// workspace arena and the factor cache, Solver.Solve allocates nothing — every
// grid, window and right-hand side a cycle needs is pooled scratch. The
// collector is parked for the measurement so a GC cannot empty the pools
// under it.
func TestSolveSteadyStateAllocates(t *testing.T) {
	skipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		family Family
		eps    float64
		n      int
	}{{FamilyPoisson, 0, 65}, {FamilyVarCoef, 1, 65}, {FamilyPoisson3D, 0, 17}} {
		s, err := Tune(Options{MaxSize: tc.n, Family: tc.family, Epsilon: tc.eps, Distribution: Unbiased, Machine: "intel-harpertown", Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		p, err := s.NewFamilyProblem(tc.n, Unbiased, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, acc := range []float64{10, 1e9} {
			t.Run(fmt.Sprintf("%v/n%d/acc%g", tc.family, tc.n, acc), func(t *testing.T) {
				x0, x := p.NewState(), p.NewState()
				solve := func() {
					x.CopyFrom(x0)
					if err := s.Solve(x, p.B, acc); err != nil {
						t.Fatal(err)
					}
				}
				solve()
				solve()
				if allocs := testing.AllocsPerRun(5, solve); allocs != 0 {
					t.Errorf("Solve allocates %v times per call in steady state, want 0", allocs)
				}
				if out := s.Workspace().ScratchOutstanding(); out != 0 {
					t.Errorf("%d scratch sets outstanding after the solves", out)
				}
			})
		}
	}
}
