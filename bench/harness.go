package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"pbmg"
	"pbmg/internal/mixload"
)

// options are the per-run knobs of the command line.
type options struct {
	seed   int64
	rounds int
	trace  bool
	outDir string // traces land here
	tmpDir string // tuned tables are written under here and removed
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// roundStat is what one measured round contributes; the run reports the
// best round of each timing.
type roundStat struct {
	WallS      float64 `json:"wall_s"`
	P50Ms      float64 `json:"latency_p50_ms"`
	OpsPerS    float64 `json:"throughput_ops_s"`
	CPUMsPerOp float64 `json:"cpu_ms_per_op"`
	AllocMB    float64 `json:"alloc_mb_per_op"`
}

// report is everything one run measured. The contract line the driver reads
// is cut from it (see main.go).
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Clients     int                    `json:"clients"`
	OpsPerRound int                    `json:"ops_per_round"`
	Rounds      []roundStat            `json:"rounds"`
	Attempted   int                    `json:"attempted"`
	Succeeded   int                    `json:"succeeded"`
	Failed      int                    `json:"failed"`
	Correct     bool                   `json:"correct"`
	Errors      []string               `json:"errors,omitempty"`
	P99Samples  int                    `json:"latency_p99_samples"`
	TuneS       map[string]float64     `json:"tune_s_by_family"`
	Host        hostInfo               `json:"host"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

// fail records an incorrect or failed operation (the first few verbatim).
func (r *report) fail(err error) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// grader checks solutions against mathematics and against the plain serial
// in-process solve of the same request.
type grader struct {
	serial   map[pbmg.Family]*pbmg.Solver
	minRatio float64 // smallest achieved/requested accuracy seen
}

func newGrader(ev *env) (*grader, error) {
	g := &grader{serial: make(map[pbmg.Family]*pbmg.Solver), minRatio: math.Inf(1)}
	for _, fs := range ev.spec.families {
		s, err := pbmg.Load(ev.tablePath(fs.family), 0)
		if err != nil {
			return nil, err
		}
		g.serial[fs.family] = s
	}
	return g, nil
}

// check grades one element's solutions: right count and lengths, achieved
// accuracy against the reference solution, and bit equality with the serial
// in-process solve (pooled kernels and the JSON round trip are both exact).
func (g *grader) check(e *element, got [][]float64) error {
	if err := checkLengths(e, got); err != nil {
		return err
	}
	if e.want == nil {
		for _, p := range e.probs {
			x := p.NewState()
			if err := g.serial[e.family].Solve(x, p.B, e.acc); err != nil {
				return fmt.Errorf("serial solve: %w", err)
			}
			e.want = append(e.want, x.Data())
		}
	}
	for k, p := range e.probs {
		xg := p.NewState()
		copy(xg.Data(), got[k])
		ratio := math.Min(p.AccuracyOf(xg)/e.acc, math.MaxFloat64)
		g.minRatio = math.Min(g.minRatio, ratio)
		if !(ratio >= gradeSlack) {
			return fmt.Errorf("%s n=%d acc=%g: achieved %.3g of the requested accuracy", e.family, e.n, e.acc, ratio)
		}
		if !slices.Equal(got[k], e.want[k]) {
			return fmt.Errorf("%s n=%d acc=%g: solution differs from the serial in-process solve", e.family, e.n, e.acc)
		}
	}
	return nil
}

// runOp executes one op for client c and reports whether every element
// passed its cheap checks.
func runOp(inst *instance, c int) error {
	for _, e := range inst.op {
		if _, err := inst.exec(c, e, false); err != nil {
			return err
		}
	}
	return nil
}

// runRound runs a fixed number of ops split over the closed-loop clients and
// returns every op's latency and the first few errors.
func runRound(spec *workloadSpec, inst *instance) (lat []time.Duration, stat roundStat, errs []error) {
	per := spec.opsPerRound / spec.clients
	lats := make([][]time.Duration, spec.clients)
	cerrs := make([][]error, spec.clients)
	var wg sync.WaitGroup
	alloc0 := readAllocBytes()
	cpu0 := cpuTime()
	t0 := time.Now()
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats[c] = make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				s := time.Now()
				if err := runOp(inst, c); err != nil {
					cerrs[c] = append(cerrs[c], err)
					continue // a failed op has no latency: it is missing
				}
				lats[c] = append(lats[c], time.Since(s))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	alloc := readAllocBytes() - alloc0
	for c := range lats {
		lat = append(lat, lats[c]...)
		errs = append(errs, cerrs[c]...)
	}
	slices.Sort(lat)
	ops := float64(spec.opsPerRound)
	stat = roundStat{
		WallS:      wall.Seconds(),
		P50Ms:      ms(mixload.Percentile(lat, 0.5)),
		OpsPerS:    float64(len(lat)) / wall.Seconds(),
		CPUMsPerOp: ms(cpu) / ops,
		AllocMB:    float64(alloc) / 1e6 / ops,
	}
	return lat, stat, errs
}

// runWorkload is one whole run: set-up, graded warm-up, the measured rounds
// with tracing off, and — when asked — the traced pass.
func runWorkload(spec workloadSpec, o options, start time.Time) (*report, error) {
	rep := &report{
		Workload: spec.name, Seed: o.seed, Clients: spec.clients, OpsPerRound: spec.opsPerRound,
		Correct: true, Host: newHostInfo(),
	}
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmpDir, spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ev := &env{spec: &spec, seed: o.seed, dir: dir, tuneS: make(map[string]float64)}
	rep.TuneS = ev.tuneS

	inst, err := spec.setup(ev)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	closeInst := sync.OnceFunc(inst.close)
	defer closeInst()
	g, err := newGrader(ev)
	if err != nil {
		return nil, err
	}

	// Warm-up: grade every distinct request in full, then run one discarded
	// round so pools, factor caches and connections are in steady state.
	for _, e := range inst.distinct {
		got, err := inst.exec(0, e, true)
		if err == nil {
			err = g.check(e, got)
		}
		if err != nil {
			rep.Attempted++
			rep.Failed++
			rep.fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	if _, _, errs := runRound(&spec, inst); len(errs) > 0 {
		rep.fail(fmt.Errorf("warm-up round: %w", errs[0]))
	}
	setupS := time.Since(start).Seconds()

	// Measured rounds, tracing off.
	var all []time.Duration
	perRound := make(map[string][]float64) // end-to-end metric -> its value in every round
	rc0 := readRuntimeCounters()
	for r := 0; r < o.rounds; r++ {
		rep.Host.CalibMs = append(rep.Host.CalibMs, ms(calibSpin()))
		ticks := readCPUTicks()
		lat, stat, errs := runRound(&spec, inst)
		rep.Host.StealPct = append(rep.Host.StealPct, stealPct(ticks, readCPUTicks()))
		rep.Rounds = append(rep.Rounds, stat)
		rep.Attempted += spec.opsPerRound
		rep.Failed += len(errs)
		for _, err := range errs {
			rep.fail(err)
		}
		all = append(all, lat...)
		perRound["latency_p50_ms"] = append(perRound["latency_p50_ms"], stat.P50Ms)
		perRound["throughput_ops_s"] = append(perRound["throughput_ops_s"], stat.OpsPerS)
		perRound["cpu_ms_per_op"] = append(perRound["cpu_ms_per_op"], stat.CPUMsPerOp)
		perRound["alloc_mb_per_op"] = append(perRound["alloc_mb_per_op"], stat.AllocMB)
	}
	rc1 := readRuntimeCounters()
	ops := float64(o.rounds * spec.opsPerRound)
	rep.Succeeded = rep.Attempted - rep.Failed
	once := map[string]float64{"live_heap_mb": liveHeapMB(), "setup_s": setupS}
	rep.EndToEnd = make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		v, ok := once[m.Name]
		if !ok {
			v = best(perRound[m.Name], m.Better)
		}
		rep.EndToEnd[m.Name] = metricValue{v, m.Unit}
	}

	if o.trace {
		slices.Sort(all)
		p50s := perRound["latency_p50_ms"]
		rep.P99Samples = len(all)
		pl := map[string]float64{
			"runtime.gc_cycles_per_op": float64(rc1.gcCycles-rc0.gcCycles) / ops,
			"runtime.gc_pause_ms":      ms(rc1.gcPause - rc0.gcPause),
			"runtime.allocs_per_op":    float64(rc1.allocObjects-rc0.allocObjects) / ops,
			"client.latency_p99_ms":    ms(mixload.Percentile(all, 0.99)),
			"client.round_spread_pct":  100 * (slices.Max(p50s) - slices.Min(p50s)) / slices.Min(p50s),
			"host.steal_pct":           mean(rep.Host.StealPct),
			"host.calib_ms":            slices.Min(rep.Host.CalibMs),
		}
		if err := tracedPass(ev, inst, g, o, pl); err != nil {
			rep.fail(fmt.Errorf("traced pass: %w", err))
		}
		closeInst()
		for _, s := range g.serial {
			s.Close()
		}
		// Everything the run started is stopped: once the closed connections'
		// goroutines have unwound, what is left is the leak.
		for i := 0; i < 100 && runtime.NumGoroutine() > 1; i++ {
			time.Sleep(time.Millisecond)
		}
		pl["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
		rep.PerLayer = make(map[string]metricValue, len(perLayer))
		for _, m := range perLayer {
			rep.PerLayer[m.Name] = metricValue{pl[m.Name], m.Unit}
		}
	}
	return rep, nil
}
