// Command mgbench regenerates the paper's evaluation tables and figures
// (§4). Each experiment prints an aligned table; "-exp all" runs the whole
// evaluation in order. Wall-clock experiments (complexity, fig6, fig7,
// fig9) measure the host machine; the architecture studies (fig10–fig13,
// fig14, crosstrain) price deterministic operation traces under the three
// simulated testbed models. REPRODUCTION.md says which experiment
// reproduces which claim, and how.
//
// mgbench runs paper experiments only: the compiler gates are mglint's,
// and kernel, load and regression measurement is bench/'s.
//
// Usage:
//
//	mgbench -exp fig6 -level 9
//	mgbench -exp fig10
//	mgbench -exp all -level 8 > results.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"pbmg/internal/experiments"
	"pbmg/internal/grid"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: complexity, fig6, fig7 (includes fig8), fig9, fig10, fig11, fig12, fig13, fig14, fig4, fig5, fig5b (biased data), crosstrain, or all")
	level := flag.Int("level", 8, "finest multigrid level (grid side 2^k+1)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker threads for wall-clock experiments")
	seed := flag.Int64("seed", 20090101, "training/test seed")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	var logf func(format string, args ...any)
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mgbench: "+format+"\n", args...)
		}
	}

	r := experiments.NewRunner(experiments.Opts{MaxLevel: *level, Workers: *workers, Seed: *seed, Logf: logf})
	err := run(r, *exp, *workers)
	r.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgbench:", err)
		os.Exit(1)
	}
}

func run(r *experiments.Runner, exp string, workers int) error {
	printTable := func(t *experiments.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t.String())
		return nil
	}
	printTables := func(ts []*experiments.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range ts {
			fmt.Println(t.String())
		}
		return nil
	}
	printText := func(s string, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(s)
		return nil
	}

	switch exp {
	case "complexity":
		return printTable(r.Complexity())
	case "fig6":
		return printTable(r.Fig6())
	case "fig7", "fig8":
		abs, rel, err := r.Fig7and8()
		if err != nil {
			return err
		}
		fmt.Println(abs.String())
		fmt.Println(rel.String())
		return nil
	case "fig9":
		return printTable(r.Fig9(workers))
	case "fig10":
		return printTables(r.Fig10())
	case "fig11":
		return printTables(r.Fig11())
	case "fig12":
		return printTables(r.Fig12())
	case "fig13":
		return printTables(r.Fig13())
	case "fig14":
		return printText(r.Fig14())
	case "fig4":
		return printText(r.Fig4())
	case "fig5":
		return printText(r.Fig5(grid.Unbiased))
	case "fig5b":
		return printText(r.Fig5(grid.Biased))
	case "crosstrain":
		return printTable(r.CrossTrain())
	case "all":
		for _, e := range []string{
			"complexity", "fig4", "fig5", "fig6", "fig7", "fig9",
			"fig10", "fig11", "fig12", "fig13", "fig14", "crosstrain",
		} {
			if err := run(r, e, workers); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
