// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the complexity table, Figure 4 call stacks, Figure 5/14
// cycle shapes, Figure 6 absolute performance, Figures 7–8 heuristic
// comparisons, Figure 9 parallel scalability, Figures 10–13 relative
// performance across three (simulated) architectures, and the §4.3
// cross-training penalty. Wall-clock experiments run on the host; the
// architecture studies price recorded operation traces under the
// deterministic cost models in internal/arch.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/refsol"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// Opts configures an experiment run.
type Opts struct {
	// MaxLevel is the finest multigrid level exercised (grid side 2^k+1).
	MaxLevel int
	// Workers sizes the worker pool for wall-clock runs (0/1: serial).
	Workers int
	// Seed fixes training and test data.
	Seed int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o Opts) defaults() Opts {
	if o.MaxLevel == 0 {
		o.MaxLevel = 8
	}
	if o.Seed == 0 {
		o.Seed = 20090101 // SC'09
	}
	return o
}

func (o Opts) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range width {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Notes)
	}
	return sb.String()
}

// Runner caches tuned bundles, test problems and band factorizations across
// experiments so that one mgbench invocation tunes each (machine,
// distribution) pair once and factors each matrix once — its reference solves
// and its workspaces share cache, which dies with the Runner.
type Runner struct {
	O       Opts
	pool    *sched.Pool
	cache   *direct.Cache
	bundles map[string]*core.Tuned
	tests   map[string]*problem.Problem
}

// NewRunner returns a Runner for the given options.
func NewRunner(o Opts) *Runner {
	o = o.defaults()
	var pool *sched.Pool
	if o.Workers > 1 {
		pool = sched.NewPool(o.Workers)
	}
	return &Runner{O: o, pool: pool, cache: &direct.Cache{}, bundles: map[string]*core.Tuned{}, tests: map[string]*problem.Problem{}}
}

// workspace returns a Poisson workspace on pool that factors through the
// Runner's cache.
func (r *Runner) workspace(pool *sched.Pool) *mg.Workspace {
	ws := mg.NewWorkspace(pool, stencil.Poisson())
	ws.FactorCache = r.cache
	return ws
}

// Close releases the worker pool.
func (r *Runner) Close() {
	if r.pool != nil {
		r.pool.Close()
	}
}

// tuned returns (tuning on first use) the bundle for a machine ("" = host
// wall clock) and distribution at the runner's MaxLevel.
func (r *Runner) tuned(machine string, dist grid.Distribution) (*core.Tuned, error) {
	key := fmt.Sprintf("%s/%s/%d", machine, dist, r.O.MaxLevel)
	if b, ok := r.bundles[key]; ok {
		return b, nil
	}
	var coster arch.Coster = arch.WallClock{}
	if machine != "" {
		m, err := arch.ByName(machine)
		if err != nil {
			return nil, err
		}
		coster = m
	}
	r.O.logf("tuning for %s on %s data (level %d)...", coster.Name(), dist, r.O.MaxLevel)
	start := time.Now()
	tn, err := core.New(core.Config{
		MaxLevel:     r.O.MaxLevel,
		Distribution: dist,
		Seed:         r.O.Seed,
		Coster:       coster,
		Pool:         r.pool,
		Logf:         r.O.Logf,
	})
	if err != nil {
		return nil, err
	}
	b, err := tn.Tune()
	if err != nil {
		return nil, err
	}
	r.O.logf("tuned %s/%s in %.1fs", coster.Name(), dist, time.Since(start).Seconds())
	r.bundles[key] = b
	return b, nil
}

// test returns (generating on first use) a benchmark problem of the given
// level with its reference solution. Test data uses a different seed stream
// than training data.
func (r *Runner) test(level int, dist grid.Distribution) *problem.Problem {
	return r.instance("test", 0x5eed, level, dist)
}

// calibSet returns the very training instances the tuner trains on
// (core.TrainingProblem, core.DefaultTrainingInstances of them). Reference
// algorithms determine their iteration counts here — the maximum over the
// set, exactly the tuner's rule — and then run those counts on held-out
// test instances, so both sides commit ahead of time on identical data and
// are compared on data neither has seen.
func (r *Runner) calibSet(level int, dist grid.Distribution) []*problem.Problem {
	out := make([]*problem.Problem, core.DefaultTrainingInstances)
	for i := range out {
		key := fmt.Sprintf("train%d/%d/%s", i, level, dist)
		p, ok := r.tests[key]
		if !ok {
			p = core.TrainingProblem(r.O.Seed, level, i, dist, stencil.Poisson())
			refsol.Attach(p, r.pool, r.cache)
			r.tests[key] = p
		}
		out[i] = p
	}
	return out
}

// calibIters returns the maximum iterations any calibration instance needs
// for solve to reach the target, or 0 if some instance misses within cap.
// solve must run one iteration step of the algorithm on (x, p).
func (r *Runner) calibIters(level int, dist grid.Distribution, target float64, cap int,
	newState func(p *problem.Problem) *grid.Grid,
	step func(p *problem.Problem, x *grid.Grid)) int {
	worst := 0
	for _, p := range r.calibSet(level, dist) {
		x := newState(p)
		iters, acc := 0, 0.0
		for iters < cap && acc < target {
			step(p, x)
			iters++
			acc = p.AccuracyOf(x)
		}
		if acc < target {
			return 0
		}
		if iters > worst {
			worst = iters
		}
	}
	return worst
}

func (r *Runner) instance(kind string, salt int64, level int, dist grid.Distribution) *problem.Problem {
	key := fmt.Sprintf("%s/%d/%s", kind, level, dist)
	if p, ok := r.tests[key]; ok {
		return p
	}
	rng := rand.New(rand.NewSource(r.O.Seed ^ salt ^ int64(level)<<8 ^ int64(dist)))
	p := problem.RandomOp(grid.SizeOfLevel(level), dist, rng, stencil.Poisson())
	refsol.Attach(p, r.pool, r.cache)
	r.tests[key] = p
	return p
}

// timeIt measures fn's wall time, repeating short runs for precision and
// taking the minimum (least-noise) sample.
func timeIt(fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	elapsed := func() time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	d := elapsed()
	if d < best {
		best = d
	}
	// Short runs: resample until we have spent ~20ms or 5 samples.
	for samples, spent := 1, d; spent < 20*time.Millisecond && samples < 5; samples++ {
		d = elapsed()
		if d < best {
			best = d
		}
		spent += d
	}
	return best
}

// fmtSec renders seconds compactly.
func fmtSec(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// fmtRatio renders a relative-time ratio.
func fmtRatio(r float64) string {
	if math.IsInf(r, 0) || math.IsNaN(r) || r <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", r)
}

// accIndexFor returns the index of the smallest target ≥ accuracy in accs.
func accIndexFor(accs []float64, accuracy float64) int {
	for i, a := range accs {
		if a >= accuracy {
			return i
		}
	}
	return len(accs) - 1
}
