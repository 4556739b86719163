// Command mgbench regenerates the paper's evaluation tables and figures
// (§4). Each experiment prints an aligned table; "-exp all" runs the whole
// evaluation in order. Wall-clock experiments (complexity, fig6, fig7,
// fig9) measure the host machine; the architecture studies (fig10–fig13,
// fig14, crosstrain) price deterministic operation traces under the three
// simulated testbed models. REPRODUCTION.md says which experiment
// reproduces which claim, and how.
//
// Three more jobs share the binary: "-exp kernels" is the fused-vs-unfused
// kernel microbenchmark (BENCH_kernels.json with -json), and "-exp escapes"
// and "-exp bce" are the compiler gates CI runs. Load and regression
// measurement is bench/'s, not mgbench's.
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
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: complexity, fig6, fig7 (includes fig8), fig9, fig10, fig11, fig12, fig13, fig14, fig4, fig5, crosstrain, ablation-smoother, ablation-ladder, ablation-pareto, cluster, kernels, escapes, bce, or all")
	level := flag.Int("level", 8, "finest multigrid level (grid side 2^k+1)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker threads for wall-clock experiments")
	seed := flag.Int64("seed", 20090101, "training/test seed")
	jsonOut := flag.Bool("json", false, "with -exp kernels, also write BENCH_kernels.json")
	writeAllow := flag.Bool("write", false, "with -exp escapes or bce, regenerate ESCAPES.allow / BCE.allow from the current compiler output instead of gating against it")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	var logf func(format string, args ...any)
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mgbench: "+format+"\n", args...)
		}
	}

	var err error
	switch *exp {
	case "kernels":
		err = runKernels(*workers, *seed, *jsonOut, logf)
	case "escapes":
		err = runEscapes(*writeAllow, logf)
	case "bce":
		err = runBCE(*writeAllow, logf)
	default:
		r := experiments.NewRunner(experiments.Opts{MaxLevel: *level, Workers: *workers, Seed: *seed, Logf: logf})
		err = run(r, *exp)
		r.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgbench:", err)
		os.Exit(1)
	}
}

func run(r *experiments.Runner, exp string) error {
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
		return printTable(r.Fig9(runtime.NumCPU()))
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
		return printText(r.Fig5(0)) // unbiased
	case "crosstrain":
		return printTable(r.CrossTrain())
	case "ablation-smoother":
		return printTable(r.SmootherAblation())
	case "ablation-ladder":
		return printTable(r.LadderAblation())
	case "ablation-pareto":
		return printTable(r.ParetoAblation())
	case "cluster":
		return printTable(r.ClusterLayout())
	case "all":
		for _, e := range []string{
			"complexity", "fig4", "fig5", "fig6", "fig7", "fig9",
			"fig10", "fig11", "fig12", "fig13", "fig14", "crosstrain",
			"ablation-smoother", "ablation-ladder", "ablation-pareto", "cluster",
		} {
			if err := run(r, e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
