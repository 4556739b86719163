package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"pbmg"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
)

// The baseline experiment is the per-PR perf tracker: it tunes one operator
// family on the deterministic harpertown cost model (so the tuned tables —
// and hence the recorded op counts — are reproducible), then wall-clock
// measures tuned FULL-MULTIGRID solves across levels and accuracy targets
// on the host. With -json the result is also written to BENCH_<family>.json
// so successive PRs can diff the trajectory; the op counts are
// machine-independent, the wall times are the host's.

// benchCell is one (level, accuracy) measurement.
type benchCell struct {
	Level   int     `json:"level"`
	N       int     `json:"n"`
	Acc     float64 `json:"acc"`
	Sweeps  int64   `json:"sweeps"`
	Directs int64   `json:"directs"`
	WallNS  int64   `json:"wallNs"`
	// AchievedExp is log10 of the achieved accuracy (99 records the +Inf of
	// an exact direct solve, mirroring the goldens convention).
	AchievedExp float64 `json:"achievedExp"`
	// Precision is the tuned plan's storage precision at this cell ("f64",
	// "f32", or "mixed").
	Precision string `json:"precision,omitempty"`
}

// benchReport is the machine-readable baseline for one family.
type benchReport struct {
	Family   string  `json:"family"`
	Eps      float64 `json:"eps,omitempty"`
	Dim      int     `json:"dim"`
	MaxLevel int     `json:"maxLevel"`
	Machine  string  `json:"machine"`
	GoOS     string  `json:"goos"`
	GoArch   string  `json:"goarch"`
	// Steals is the worker pool's successful-steal count across the run —
	// scheduler visibility (0 for serial runs).
	Steals int64       `json:"steals"`
	Cells  []benchCell `json:"cells"`
}

// baselineAccs are the accuracy targets sampled per level.
var baselineAccs = []float64{1e1, 1e5, 1e9}

// runBaseline measures the family baseline up to maxLevel and optionally
// writes BENCH_<family>.json (or outPath when non-empty).
func runBaseline(familyName string, eps float64, maxLevel, workers int, seed int64, writeJSON bool, outPath string, logf func(string, ...any)) error {
	f, err := pbmg.ParseFamily(familyName)
	if err != nil {
		return err
	}
	if f.Dim() == 3 && maxLevel > 6 {
		// 3D levels grow as N³; level 6 (129³ ≈ 2.1M points) is already a
		// heavy per-solve baseline.
		fmt.Fprintf(os.Stderr, "mgbench: 3D baseline capped at level 6 (129³ points); requested %d\n", maxLevel)
		maxLevel = 6
	}
	opts := pbmg.Options{
		MaxSize: grid.SizeOfLevel(maxLevel),
		Family:  f,
		Epsilon: eps,
		Machine: "intel-harpertown", // deterministic tables; wall times are the host's
		Workers: workers,
		Seed:    seed,
	}
	if logf != nil {
		opts.Logf = logf
	}
	solver, err := pbmg.Tune(opts)
	if err != nil {
		return err
	}
	defer solver.Close()

	rep := benchReport{
		Family:   solver.Family().String(),
		Dim:      solver.Dim(),
		MaxLevel: maxLevel,
		Machine:  solver.Machine(),
		GoOS:     runtime.GOOS,
		GoArch:   runtime.GOARCH,
	}
	if pbmg.FamilyHasParam(solver.Family()) {
		rep.Eps = solver.Epsilon()
	}

	fmt.Printf("baseline %s (dim %d), tuned on %s\n", rep.Family, rep.Dim, rep.Machine)
	fmt.Printf("%6s %6s %10s %6s %8s %8s %12s %10s\n", "level", "N", "acc", "prec", "sweeps", "directs", "wall", "achieved")
	for level := 3; level <= maxLevel; level++ {
		n := grid.SizeOfLevel(level)
		p, err := solver.NewFamilyProblem(n, pbmg.Unbiased, seed+int64(level))
		if err != nil {
			return err
		}
		pbmg.Reference(p)
		for _, acc := range baselineAccs {
			var tr mg.OpTrace
			x := p.NewState()
			if err := solver.SolveTraced(x, p.B, acc, &tr); err != nil {
				return err
			}
			achieved := p.AccuracyOf(x)
			achievedExp := 99.0
			if !math.IsInf(achieved, 1) {
				achievedExp = math.Round(math.Log10(achieved)*100) / 100
			}
			// Wall time: best of three fresh solves (the traced solve above
			// warmed the factor caches).
			wall := time.Duration(1 << 62)
			for trial := 0; trial < 3; trial++ {
				x := p.NewState()
				start := time.Now()
				if err := solver.Solve(x, p.B, acc); err != nil {
					return err
				}
				if d := time.Since(start); d < wall {
					wall = d
				}
			}
			prec, err := solver.PlanPrecision(n, acc)
			if err != nil {
				return err
			}
			cell := benchCell{
				Level:       level,
				N:           n,
				Acc:         acc,
				Sweeps:      tr.Total(mg.EvRelax) + tr.Total(mg.EvIterSolve),
				Directs:     tr.Total(mg.EvDirect),
				WallNS:      wall.Nanoseconds(),
				AchievedExp: achievedExp,
				Precision:   prec,
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Printf("%6d %6d %10.0e %6s %8d %8d %12v %10.3g\n",
				level, n, acc, prec, cell.Sweeps, cell.Directs, wall, achieved)
		}
	}

	rep.Steals = solver.PoolSteals()

	if writeJSON {
		path := outPath
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", rep.Family)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
