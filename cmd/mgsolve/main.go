// Command mgsolve solves a random 2D Poisson problem with a tuned
// configuration produced by mgtune and reports the achieved accuracy and
// solve time, the analogue of running a PetaBricks binary with a saved
// configuration file (§3.2.1).
//
// Usage:
//
//	mgsolve -config tuned.json -size 257 -acc 1e7
//	mgsolve -config tuned.json -size 129 -acc 1e5 -cycle -v
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pbmg"
)

func main() {
	config := flag.String("config", "tuned.json", "tuned configuration from mgtune")
	size := flag.Int("size", 257, "grid side (2^k+1, within the tuned range)")
	acc := flag.Float64("acc", 1e7, "required accuracy level")
	family := flag.String("family", "", "operator family the problem is drawn from (poisson, aniso, varcoef, poisson3d); must match the tuned configuration. Empty uses the configuration's family")
	epsilon := flag.Float64("epsilon", 0, "family parameter ε/σ; must match the tuned configuration. 0 uses the configuration's value")
	dist := flag.String("dist", "unbiased", "test data distribution: unbiased, biased, or point-sources")
	seed := flag.Int64("seed", 7, "test problem seed")
	workers := flag.Int("workers", runtime.NumCPU(), "worker threads")
	cycle := flag.Bool("cycle", false, "print the tuned cycle shape before solving")
	verbose := flag.Bool("v", false, "print the tuned call tree")
	flag.Parse()

	d, err := pbmg.ParseDistribution(*dist)
	if err != nil {
		fatal(err)
	}
	solver, err := pbmg.Load(*config, *workers)
	if err != nil {
		fatal(err)
	}
	defer solver.Close()

	// The problem family and parameter must match what the configuration
	// was tuned for: tuned tables are family-specific, so a mismatch would
	// silently solve the wrong operator.
	if err := solver.CheckFamilyFlags(*config, *family, *epsilon); err != nil {
		fatal(err)
	}

	if *cycle {
		shape, err := solver.CycleShape(*size, *acc)
		if err != nil {
			fatal(err)
		}
		fmt.Println("tuned cycle shape (o relax, \\ restrict, / interpolate, D direct, ~k~ SOR):")
		fmt.Print(shape)
	}
	if *verbose {
		desc, err := solver.Describe(*size, *acc)
		if err != nil {
			fatal(err)
		}
		fmt.Println("tuned call tree:")
		fmt.Print(desc)
	}

	p, err := solver.NewFamilyProblem(*size, d, *seed)
	if err != nil {
		fatal(err)
	}
	x := p.NewState()
	start := time.Now()
	err = solver.Solve(x, p.B, *acc)
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}

	pbmg.Reference(p)
	fmt.Printf("solved N=%d (%s data, family %s, eps %g) in %v\n",
		*size, d, solver.Family(), solver.Epsilon(), elapsed)
	fmt.Printf("requested accuracy %.2g, achieved %.4g\n", *acc, p.AccuracyOf(x))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mgsolve:", err)
	os.Exit(1)
}
