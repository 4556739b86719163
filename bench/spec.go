package main

import "pbmg"

// This file is the benchmark's vocabulary: the workload and metric names
// every later performance claim in the repo refers to. BENCHMARK.json at the
// repo root must list exactly these names (bench_test.go checks it).

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics are diagnostics and carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the six gated metrics, measured with tracing off and reported
// under the same names on every workload.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced-pass diagnostics, prefixed with the module (layer)
// they time or count. "Better" is the direction an optimisation of that
// layer would move the number.
var perLayer = []metricDef{
	{"stencil.sor_ns_per_point", "ns", "lower", 0},
	{"stencil.sor_f32_ns_per_point", "ns", "lower", 0},
	{"stencil.downstroke_ns_per_point", "ns", "lower", 0},
	{"stencil.upstroke_ns_per_point", "ns", "lower", 0},
	{"stencil.residual_norm_ns_per_point", "ns", "lower", 0},
	{"stencil.sor_gbs_computed", "GB/s", "higher", 0},
	{"transfer.restrict_ns_per_point", "ns", "lower", 0},
	{"transfer.interp_ns_per_point", "ns", "lower", 0},
	{"grid.convert_ns_per_point", "ns", "lower", 0},
	{"grid.clone_ns_per_point", "ns", "lower", 0},
	{"direct.factor_ms", "ms", "lower", 0},
	{"direct.solve_us", "us", "lower", 0},
	{"direct.factorizations", "count", "lower", 0},
	{"direct.solves_per_op", "count", "lower", 0},
	{"sched.parallel_for_overhead_us", "us", "lower", 0},
	{"sched.speedup_w2", "x", "higher", 0},
	{"sched.solve_speedup_w2", "x", "higher", 0},
	{"sched.steals_per_solve", "count", "lower", 0},
	{"mg.relax_sweeps_per_op", "count", "lower", 0},
	{"mg.residuals_per_op", "count", "lower", 0},
	{"mg.restricts_per_op", "count", "lower", 0},
	{"mg.interps_per_op", "count", "lower", 0},
	{"mg.itersolve_sweeps_per_op", "count", "lower", 0},
	{"mg.time_share_finest", "%", "lower", 0},
	{"mg.time_share_relax", "%", "lower", 0},
	{"mg.time_share_direct", "%", "lower", 0},
	{"mg.vcycle_ms", "ms", "lower", 0},
	{"mg.scratch_outstanding", "count", "lower", 0},
	{"solver.solve_ms", "ms", "lower", 0},
	{"solver.self_ms", "ms", "lower", 0},
	{"solver.escalations", "count", "lower", 0},
	{"solver.achieved_accuracy_min", "x", "higher", 0},
	{"service.overhead_us", "us", "lower", 0},
	{"service.admitted", "count", "higher", 0},
	{"service.completed", "count", "higher", 0},
	{"service.shed", "count", "lower", 0},
	{"service.failed", "count", "lower", 0},
	{"registry.route_ns", "ns", "lower", 0},
	{"serve.decode_ms", "ms", "lower", 0},
	{"serve.encode_ms", "ms", "lower", 0},
	{"serve.handler_ms", "ms", "lower", 0},
	{"serve.handler_overhead_ms", "ms", "lower", 0},
	{"serve.request_bytes_per_op", "B", "lower", 0},
	{"serve.response_bytes_per_op", "B", "lower", 0},
	{"serve.shed_429", "count", "lower", 0},
	{"serve.shed_503", "count", "lower", 0},
	{"net.roundtrip_overhead_ms", "ms", "lower", 0},
	{"core.tune_s", "s", "lower", 0},
	{"core.load_ms", "ms", "lower", 0},
	{"core.plan_cells", "count", "lower", 0},
	{"core.plan_f32_cells", "count", "higher", 0},
	{"core.plan_mixed_cells", "count", "higher", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.goroutines_end", "count", "lower", 0},
	{"client.latency_p99_ms", "ms", "lower", 0},
	{"client.round_spread_pct", "%", "lower", 0},
	{"host.steal_pct", "%", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"harness.tracing_overhead_pct", "%", "lower", 0},
	{"harness.ladder_closure_pct", "%", "lower", 0},
}

// Tuning in set-up is trace-priced under a simulated machine with a fixed
// seed, so the tuned plans are bit-identical from run to run and across
// -seed values; wall-clock tuning would make the plan itself a noise source.
const (
	tuneMachine = "intel-harpertown"
	tuneSeed    = 20090101
)

// secondsPerRound converts the driver's -seconds into a round count. Rounds
// run a fixed number of ops (never a duration), sized so that one round
// takes about this long on a quiet 2-core box.
const secondsPerRound = 1.5

// The accuracy targets every solve workload cycles through: the cheapest and
// the most expensive tuned target and the one between. The tuned tables
// serve the first two in float32 storage and the last as float32 cycles under
// float64 refinement, so precision conversion is on the measured path.
var accuracies = []float64{10, 1e5, 1e9}

// gradeSlack is the share of the requested accuracy an unseen instance must
// reach to pass: tuned plans meet their target on the training distribution
// in aggregate, single instances land within a small factor of it (the
// repo's own tests grade unseen instances the same way).
const gradeSlack = 0.1

// familySpec is one tuned table a workload serves.
type familySpec struct {
	family  pbmg.Family
	maxSize int
}

// workloadSpec fixes everything about a workload except its seeded data.
type workloadSpec struct {
	name string
	why  string
	// clients is the number of closed-loop client goroutines.
	clients int
	// opsPerRound is the fixed op (bundle) count of one round, all clients
	// together.
	opsPerRound int
	// tracedOps is how many ops the traced pass walks up the ladder.
	tracedOps int
	// families are tuned in set-up, in this order.
	families []familySpec
	// workers, maxInFlight and quotas configure the kernel pool and the
	// admission limits of whatever serves the workload (and of the ladder
	// rig the traced pass builds from the same tables).
	workers     int
	maxInFlight int
	quotas      map[string]int
	// setup builds the workload's serving object and seeded requests.
	setup func(env *env) (*instance, error)
}

// specs returns the four workloads. The smoke variant shrinks every grid so
// the whole suite runs in seconds (bench_test.go); its numbers mean nothing.
func specs(smoke bool) []workloadSpec {
	n2, nVar, n3, nHTTP, nSmall2, nSmall3 := 513, 257, 33, 257, 33, 17
	ops := [4]int{40, 48, 30, 110}
	traced := [4]int{2, 3, 4, 8}
	if smoke {
		n2, nVar, n3, nHTTP, nSmall2, nSmall3 = 17, 17, 9, 17, 17, 9
		ops = [4]int{4, 4, 4, 4}
		traced = [4]int{2, 2, 2, 2}
	}
	return []workloadSpec{
		{
			name:        "solve-2d-serial",
			why:         "single-threaded Solver.Solve at N=513: kernels do >=95% of the work; sched, admission, codec and sockets are bypassed",
			clients:     1,
			opsPerRound: ops[0],
			tracedOps:   traced[0],
			families:    []familySpec{{pbmg.FamilyPoisson, n2}},
			workers:     1,
			maxInFlight: 1,
			setup:       setupSolve2D,
		},
		{
			name:        "solve-families-registry",
			why:         "varcoef N=257 and poisson3d N=33 through one Registry: the variable-coefficient and 3D kernel copies, routing, Service admission and the shared factor cache",
			clients:     1,
			opsPerRound: ops[1],
			tracedOps:   traced[1],
			families:    []familySpec{{pbmg.FamilyVarCoef, nVar}, {pbmg.FamilyPoisson3D, n3}},
			workers:     1,
			maxInFlight: 2,
			setup:       setupFamiliesRegistry,
		},
		{
			name:        "http-large-grid",
			why:         "POST /v1/solve at N=257 over one loopback keep-alive connection: JSON float text and per-request allocation dominate, the solve is ~1/8",
			clients:     1,
			opsPerRound: ops[2],
			tracedOps:   traced[2],
			families:    []familySpec{{pbmg.FamilyPoisson, nHTTP}},
			workers:     1,
			maxInFlight: 2,
			setup:       setupHTTPLargeGrid,
		},
		{
			name:        "handler-small-mixed",
			why:         "32 tiny solves plus one 8-problem batch per op through the serve handler without sockets: routing, admission and the JSON envelope are most of the time",
			clients:     2,
			opsPerRound: ops[3],
			tracedOps:   traced[3],
			families:    []familySpec{{pbmg.FamilyPoisson, nSmall2}, {pbmg.FamilyPoisson3D, nSmall3}},
			workers:     1,
			maxInFlight: 4,
			quotas:      map[string]int{"poisson": 2, "poisson3d": 2},
			setup:       setupHandlerSmallMixed,
		},
	}
}
