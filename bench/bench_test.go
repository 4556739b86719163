package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON: the harness and the contract file name the
// same workloads and metrics, with the same units, directions and bounds.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	ws := specs(false)
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		if w.opsPerRound%w.clients != 0 {
			t.Errorf("workload %s: %d ops do not split over %d clients", w.name, w.opsPerRound, w.clients)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		name(m.Name)
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %g outside the contract", m.Name, m.Unit, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.Name)
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %s: unit %q outside the contract", m.Name, m.Unit)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}

func TestBestOfRounds(t *testing.T) {
	rounds := []float64{41.2, 37.8, 39.9, 55.0}
	if got := best(rounds, "lower"); got != 37.8 {
		t.Errorf("best lower = %g, want 37.8", got)
	}
	if got := best(rounds, "higher"); got != 55.0 {
		t.Errorf("best higher = %g, want 55", got)
	}
	if got := median(rounds); got != (39.9+41.2)/2 {
		t.Errorf("median = %g", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %g, %g, want 1.5, 12", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 4, 8, 16}); got != 10.5/4 {
		t.Errorf("spreadShare = %g, want %g", got, 10.5/4)
	}
}

// TestSelfTimes: a rung's self time is its span minus what its children
// account for, never negative, and a closed chain sums to its top rung.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "net.roundtrip", StartNs: 500, EndNs: 600},            // 100
		{ID: 2, Name: "serve.handler", StartNs: 400, EndNs: 470, Parent: 1}, // 70
		{ID: 3, Name: "serve.decode", StartNs: 300, EndNs: 320, Parent: 2},  // 20
		{ID: 4, Name: "service.solve", StartNs: 200, EndNs: 230, Parent: 2}, // 30
		{ID: 5, Name: "solver.solve", StartNs: 100, EndNs: 132, Parent: 4},  // 32: noise, longer than its parent
		{ID: 6, Name: "serve.encode", StartNs: 350, EndNs: 360, Parent: 2},  // 10
		{ID: 7, Name: "mg.vcycle", StartNs: 0, EndNs: 50},                   // a side root
		{ID: 8, Name: "solver.solve_traced", StartNs: 600, EndNs: 640},      // 40
		{ID: 9, Name: "mg.relax", StartNs: 600, EndNs: 625, Parent: 8},      // 25
		{ID: 10, Name: "mg.direct", StartNs: 625, EndNs: 635, Parent: 8},    // 10
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 30, 2: 10, 3: 20, 4: 0, 5: 32, 6: 10, 7: 50, 8: 5, 9: 25, 10: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	// 30+10+20+0+32+10: the clamped rung adds its 2 ns of noise.
	if got := subtreeSelf(spans, self, 1); got != 102 {
		t.Errorf("chain self = %d, want 102", got)
	}
	if got := subtreeSelf(spans, self, 8); got != 40 {
		t.Errorf("traced tree self = %d, want 40", got)
	}
}

func TestStealPct(t *testing.T) {
	a := cpuTicks{steal: 10, total: 1000, ok: true}
	b := cpuTicks{steal: 60, total: 1200, ok: true}
	if got := stealPct(a, b); got != 25 {
		t.Errorf("stealPct = %g, want 25", got)
	}
	if got := stealPct(cpuTicks{}, b); got != -1 {
		t.Errorf("stealPct without a reading = %g, want -1", got)
	}
}

// countMetrics must be identical between two runs on the same seed.
var countMetrics = []string{
	"mg.relax_sweeps_per_op", "mg.residuals_per_op", "mg.restricts_per_op", "mg.interps_per_op",
	"mg.itersolve_sweeps_per_op", "direct.solves_per_op", "serve.request_bytes_per_op",
	"serve.response_bytes_per_op", "core.plan_cells", "core.plan_f32_cells", "core.plan_mixed_cells",
	"service.admitted", "service.completed",
}

// TestSmoke drives all four workloads at toy sizes through set-up, graded
// warm-up, one measured round and the traced pass, twice on one seed: every
// named metric is present and finite, nothing fails, the ladder closes and
// the count metrics repeat exactly.
func TestSmoke(t *testing.T) {
	for _, spec := range specs(true) {
		t.Run(spec.name, func(t *testing.T) {
			var reps [2]*report
			for i := range reps {
				o := options{seed: 7, rounds: 1, trace: true, outDir: t.TempDir(), tmpDir: t.TempDir()}
				rep, err := runWorkload(spec, o, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted != spec.opsPerRound {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
				}
				for _, m := range endToEnd {
					if v, ok := rep.EndToEnd[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
						t.Errorf("end-to-end %s = %+v (present %v)", m.Name, v, ok)
					}
				}
				for _, m := range perLayer {
					if v, ok := rep.PerLayer[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("per-layer %s = %+v (present %v)", m.Name, v, ok)
					}
				}
				if len(rep.EndToEnd) != len(endToEnd) || len(rep.PerLayer) != len(perLayer) {
					t.Errorf("%d end-to-end and %d per-layer metrics reported, want %d and %d",
						len(rep.EndToEnd), len(rep.PerLayer), len(endToEnd), len(perLayer))
				}
				for _, zero := range []string{"mg.scratch_outstanding", "service.shed", "service.failed", "serve.shed_429", "serve.shed_503", "solver.escalations"} {
					if v := rep.PerLayer[zero].Value; v != 0 {
						t.Errorf("%s = %g, want 0", zero, v)
					}
				}
				if _, err := os.Stat(o.outDir + "/" + spec.name + ".trace.json"); err != nil {
					t.Error(err)
				}
				reps[i] = rep
			}
			for _, name := range countMetrics {
				if a, b := reps[0].PerLayer[name].Value, reps[1].PerLayer[name].Value; a != b {
					t.Errorf("%s: %g then %g on the same seed", name, a, b)
				}
			}
		})
	}
}
