// Command mgtune runs the autotuner and writes a tuned configuration file,
// the analogue of PetaBricks' dynamic-tuning mode (§3.2.1): tune once per
// machine, then reuse the configuration with mgsolve.
//
// Usage:
//
//	mgtune -size 257 -dist unbiased -o tuned.json
//	mgtune -size 513 -machine sun-niagara -dist biased -o niagara.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"pbmg"
)

func main() {
	size := flag.Int("size", 257, "finest grid side (must be 2^k+1)")
	family := flag.String("family", "poisson", "operator family: poisson, aniso, varcoef, or poisson3d")
	epsilon := flag.Float64("epsilon", 0, "family parameter: anisotropy ε (aniso) or coefficient contrast σ (varcoef); 0 selects the family default")
	dist := flag.String("dist", "unbiased", "training distribution: unbiased, biased, or point-sources")
	machine := flag.String("machine", "", "simulated machine to tune for (intel-harpertown, amd-barcelona, sun-niagara); empty tunes the host by wall clock")
	workers := flag.Int("workers", runtime.NumCPU(), "worker threads for parallel kernels")
	seed := flag.Int64("seed", 1, "training data seed")
	out := flag.String("o", "tuned.json", "output configuration path")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	d, err := pbmg.ParseDistribution(*dist)
	if err != nil {
		fatal(err)
	}
	f, err := pbmg.ParseFamily(*family)
	if err != nil {
		fatal(err)
	}
	if *epsilon < 0 {
		fatal(fmt.Errorf("epsilon must be positive, got %g", *epsilon))
	}
	opts := pbmg.Options{
		MaxSize:      *size,
		Family:       f,
		Epsilon:      *epsilon,
		Distribution: d,
		Machine:      *machine,
		Workers:      *workers,
		Seed:         *seed,
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mgtune: "+format+"\n", args...)
		}
	}
	solver, err := pbmg.Tune(opts)
	if err != nil {
		fatal(err)
	}
	defer solver.Close()
	if err := solver.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("tuned for %s up to N=%d (family %s, eps %g); configuration written to %s\n",
		solver.Machine(), solver.MaxSize(), solver.Family(), solver.Epsilon(), *out)
	fmt.Printf("tuning took %s\n", solver.TuneStats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mgtune:", err)
	os.Exit(1)
}
