// Command bench is the repo benchmark: four fixed-work workloads, six
// end-to-end metrics measured with tracing off, and a traced pass that times
// the same request at every layer from outside. See README.md; run it as
//
//	bash bench/run.sh -workload <name> -seed <n> [-seconds <s>] [-trace 0|1]
//
// The last line of standard output is the result object the accepting driver
// reads; the line before it is the full report of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// processStart anchors setup_s: package variables are initialised before
// main runs.
var processStart = time.Now()

// result is the contract line: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the right-hand sides and the request order")
		seconds  = flag.Int("seconds", 15, "measured time: rounds of a fixed op count, one per 1.5 s")
		trace    = flag.Int("trace", 0, "1: also run the traced pass and report the per-layer metrics")
		aa       = flag.Int("aa", 0, "run every workload k times in two alternating sets of fresh processes and compare them")
		outDir   = flag.String("out", "bench/out", "directory for trace files")
		tmpDir   = flag.String("tmp", ".bench_build/tmp", "directory for this run's tuned tables")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *aa > 0 {
		return runAA(*aa, *seconds)
	}
	var spec *workloadSpec
	for _, s := range specs(false) {
		if s.name == *workload {
			spec = &s
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{
		seed:   *seed,
		rounds: max(2, int(math.Round(float64(*seconds)/secondsPerRound))),
		trace:  *trace != 0,
		outDir: *outDir,
		tmpDir: *tmpDir,
	}
	rep, err := runWorkload(*spec, o, processStart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", e)
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
	if o.trace {
		res.Metrics = rep.PerLayer
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range specs(false) {
		names = append(names, s.name)
	}
	return names
}
