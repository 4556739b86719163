package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// runAA is the A/A check: every workload k times in two alternating sets of
// fresh processes of this same binary, each run on its own seed. Per
// workload and end-to-end metric it prints both medians, how much worse set
// B is than set A, the wider of the two interquartile spreads and the
// bound, and it exits non-zero when identical code breaches its own bounds —
// which is what a later change would be rejected for.
func runAA(k, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB worse by\tspread\tbound\t")
	breaches := 0
	seed := int64(0)
	for _, w := range workloadNames() {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			seed++
			res, err := runChild(exe, w, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			for name, v := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		for _, m := range endToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(spreadShare(sets[0][m.Name]), spreadShare(sets[1][m.Name]))
			mark := ""
			// The accepting driver does not hold setup_s to a spread.
			if worse > m.Bound || (m.Name != "setup_s" && spread > m.Bound) {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.2f%%\t%.2f%%\t%.0f%%%s\t\n",
				w, m.Name, a, b, 100*worse, 100*spread, 100*m.Bound, mark)
		}
		tw.Flush()
	}
	if breaches > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d bound(s) breached by identical code\n", breaches)
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process and parses the result line.
func runChild(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run was not correct (%d of %d ops failed)", res.Failed, res.Attempted)
	}
	return &res, nil
}
