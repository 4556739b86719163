// Package core implements the paper's primary contribution: the
// accuracy-aware dynamic-programming autotuner for multigrid (§2.2–2.4).
//
// The tuner proceeds bottom-up over recursion levels (grid sizes 2^k+1).
// At each level it considers, for every discrete accuracy target p_i, the
// three algorithmic families — direct band Cholesky, iterated SOR with
// ω_opt, and iterated RECURSE_j steps whose coarse-grid call is the tuned
// MULTIGRID-V_j one level down — measures on shared training data how many
// iterations each needs to reach p_i, prices each candidate with a
// pluggable cost function (host wall-clock or a simulated architecture
// model), and keeps the cheapest. Because all accuracies at level k−1 are
// tuned before level k begins, optimal sub-algorithms of every accuracy are
// available for substitution, exactly as the paper's dynamic program
// requires. Tune tunes the full-multigrid table (§2.4) beside it: both
// searches at level k read only rows below k, so Tuner.tuneLevel runs them
// side by side, each serial on its own books — but not under WallClock,
// where a time read beside the other search would price the contention.
//
// The search at a level is an exact branch-and-bound (Tuner.search,
// Tuner.count). Every iteration count a candidate could be assigned is
// priced before counting reads an accuracy, and each accuracy target is
// ruled out on its own, once the cheapest count still open to it costs
// strictly more than the level's best so far at that target. A training
// instance stops when every target it has yet to meet is ruled out, as
// PetaBricks' own tuner drops a candidate once it is beaten (§3.2.2), and
// an accuracy test stops summing the error once the sum rules out the next
// target (problem.Problem.Meets). The tables are those of the exhaustive
// search, byte for byte; the exhaustive driver survives as the test oracle
// (bound_test.go). TuneHeuristic selects through the same search.
//
// Under a trace coster no step runs only to be priced: a candidate's
// one-iteration trace is recorded by the first step counting runs, and an
// estimate's by its run on the first training instance. Under WallClock
// each is timed first, in batches (Tuner.timeOneIter).
//
// The tuner's measurement workspace is private, and so is its factor cache,
// which it lends to its reference solves: every band matrix a tune touches
// is factored once, under every coster. arch.WallClock therefore prices the
// direct choice as the cached solve a pbmg.Solver runs, not as factor-and-
// solve; a trace-priced coster prices it from its trace alone, so a model
// tune factors only what its candidates' coarse solves run and the band
// solves refsol's guard hands a stalled reference to.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"pbmg/internal/arch"
	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/refsol"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// DefaultAccuracies returns the paper's discrete accuracy targets
// (p_i) = (10, 10³, 10⁵, 10⁷, 10⁹).
func DefaultAccuracies() []float64 {
	return []float64{1e1, 1e3, 1e5, 1e7, 1e9}
}

// Config controls a tuning run. The zero value is not usable; fill at least
// MaxLevel and use Defaults to populate the rest.
type Config struct {
	// Accuracies are the discrete targets p_i, ascending.
	Accuracies []float64
	// MaxLevel is the finest level to tune (grid side 2^MaxLevel + 1).
	MaxLevel int
	// Family selects the operator family to tune for (default
	// stencil.FamilyPoisson). Each family is tuned independently: the dynamic
	// program re-measures every candidate under the family's kernels, so the
	// resulting tables are keyed by (family, ε) in the saved configuration.
	Family stencil.Family
	// Eps is the family parameter: the anisotropy ratio ε for
	// FamilyAnisotropic or the coefficient contrast σ for FamilyVarCoef
	// (zero selects the family default; ignored for Poisson).
	Eps float64
	// Distribution selects the training-data distribution (§4).
	Distribution grid.Distribution
	// TrainingInstances is the number of training problems per level
	// (zero selects DefaultTrainingInstances).
	TrainingInstances int
	// Seed makes training data and hence tuning deterministic.
	Seed int64
	// Coster prices candidates: arch.WallClock for the host machine or an
	// *arch.Model for a simulated architecture.
	Coster arch.Coster
	// Pool parallelizes kernels (nil: serial); the tuner's two-way fork of
	// a level's searches does not depend on it.
	Pool *sched.Pool
	// DirectMaxLevel is the largest level at which the direct choice is
	// explored; its O(N⁴) factorization makes it useless beyond coarse
	// levels, and skipping it bounds tuning time.
	DirectMaxLevel int
	// MaxSORIters caps iteration counting for the SOR choice; targets not
	// reached within the cap mark the choice infeasible at that accuracy.
	MaxSORIters int
	// MaxRecurseIters caps iteration counting for recursive choices.
	MaxRecurseIters int
	// Logf, when non-nil, receives progress lines, maybe two at once.
	Logf func(format string, args ...any)
}

// Family defaults for the Eps parameter: a strong (10:1) anisotropy and a
// moderate coefficient contrast of e⁴ ≈ 55.
const (
	DefaultAnisoEps     = 0.1
	DefaultVarCoefSigma = 2.0
)

// FamilyHasParam reports whether a family carries a tunable parameter
// (anisotropy ratio ε or coefficient contrast σ). The constant-coefficient
// Laplacians — 2D and 3D — are parameterless.
func FamilyHasParam(f stencil.Family) bool {
	return f == stencil.FamilyAnisotropic || f == stencil.FamilyVarCoef
}

// ResolveEps maps the zero-value family parameter to the family default —
// the single place the default lives, shared by the tuner and the public
// problem constructors so both always agree on what "unset" means.
func ResolveEps(f stencil.Family, eps float64) float64 {
	if eps != 0 {
		return eps
	}
	switch f {
	case stencil.FamilyAnisotropic:
		return DefaultAnisoEps
	case stencil.FamilyVarCoef:
		return DefaultVarCoefSigma
	default:
		return 0
	}
}

// Defaults returns cfg with unset fields filled with the paper's settings.
func (cfg Config) Defaults() Config {
	if cfg.Accuracies == nil {
		cfg.Accuracies = DefaultAccuracies()
	}
	cfg.Eps = ResolveEps(cfg.Family, cfg.Eps)
	if cfg.TrainingInstances == 0 {
		cfg.TrainingInstances = DefaultTrainingInstances
	}
	if cfg.Coster == nil {
		cfg.Coster = arch.WallClock{}
	}
	if cfg.DirectMaxLevel == 0 {
		if cfg.Family.Dim() == 3 {
			// 3D band factorization costs O(N⁷); exploring the direct choice
			// past N=17 buys nothing and dominates tuning time.
			cfg.DirectMaxLevel = 4
		} else {
			cfg.DirectMaxLevel = 7
		}
	}
	// Never explore the direct choice past the hard 3D factorization cap.
	if cfg.Family.Dim() == 3 {
		for cfg.DirectMaxLevel > 2 && grid.SizeOfLevel(cfg.DirectMaxLevel) > direct.Direct3DMaxN {
			cfg.DirectMaxLevel--
		}
	}
	if cfg.MaxSORIters == 0 {
		cfg.MaxSORIters = 400
	}
	if cfg.MaxRecurseIters == 0 {
		cfg.MaxRecurseIters = 60
	}
	return cfg
}

func (cfg Config) validate() error {
	if cfg.MaxLevel < 2 {
		return fmt.Errorf("core: MaxLevel %d too small (need ≥ 2)", cfg.MaxLevel)
	}
	for i := 1; i < len(cfg.Accuracies); i++ {
		if cfg.Accuracies[i] <= cfg.Accuracies[i-1] {
			return fmt.Errorf("core: accuracies must ascend")
		}
	}
	if len(cfg.Accuracies) == 0 {
		return fmt.Errorf("core: no accuracy targets")
	}
	return nil
}

// Tuner runs the dynamic program. Create with New; not safe for concurrent
// use.
type Tuner struct {
	cfg    Config
	op     *stencil.Operator // operator family at the finest tuned size
	ws     *mg.Workspace     // private measurement workspace (see New)
	probs  map[int][]*problem.Problem
	direct map[int]float64 // direct-solve cost per level, priced once for V and full
	iter   *iterate        // this search's iterate (see tuneLevel)

	work   Stats         // this search's running counters (Factorizations: see spent)
	levels map[int]Stats // work charged to each tuned level

	// reorder, when non-nil, permutes a level's measurement order in place —
	// the tests' proof that the order changes speed and nothing else.
	reorder func(order []int)
}

// New returns a tuner for the given configuration (defaults applied).
func New(cfg Config) (*Tuner, error) {
	cfg = cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	op, err := stencil.NewOperator(cfg.Family, cfg.Eps, grid.SizeOfLevel(cfg.MaxLevel))
	if err != nil {
		return nil, err
	}
	// Trace-based costers price per-level stencil passes by point count,
	// which depends on the operator's dimension; derive a coster for this
	// tuner's geometry (the caller's coster is never mutated).
	cfg.Coster = arch.ForDim(cfg.Coster, op.Dim())
	// The workspace's factor cache serves candidates and reference solves
	// (see training), unbounded because a tune touches a handful of sizes,
	// and the tuner's own so that the factorizations die with it: the
	// candidates' coarse solves, the band solves refsol's guard hands a
	// stalled reference to (16.5 MB at N = 129), and under a wall clock
	// those of every level the direct choice is timed at.
	return &Tuner{
		cfg:    cfg,
		op:     op,
		ws:     mg.NewWorkspace(cfg.Pool, op),
		probs:  make(map[int][]*problem.Problem),
		direct: make(map[int]float64),
		iter:   &iterate{},
		levels: make(map[int]Stats),
	}, nil
}

func (t *Tuner) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// DefaultTrainingInstances is the number of training problems per level a
// Config that sets none trains on.
const DefaultTrainingInstances = 3

// TrainingProblem returns training instance i of a level: the right-hand
// side and boundary drawn from dist on the seed stream the tuner trains
// on, discretized by op (which must be at the level's size), with no
// reference solution attached.
func TrainingProblem(seed int64, level, i int, dist grid.Distribution, op *stencil.Operator) *problem.Problem {
	rng := rand.New(rand.NewSource(seed + int64(level)*1009 + int64(i)))
	return problem.RandomOp(grid.SizeOfLevel(level), dist, rng, op)
}

// training returns (generating on first use) the training problems for a
// level, with reference solutions attached, computed one per goroutine.
func (t *Tuner) training(level int) []*problem.Problem {
	if ps, ok := t.probs[level]; ok {
		return ps
	}
	n := grid.SizeOfLevel(level)
	ps := make([]*problem.Problem, t.cfg.TrainingInstances)
	var wg sync.WaitGroup
	for i := range ps {
		ps[i] = TrainingProblem(t.cfg.Seed, level, i, t.cfg.Distribution, t.op.At(n))
		wg.Add(1)
		go func() { defer wg.Done(); refsol.Attach(ps[i], t.cfg.Pool, t.ws.FactorCache) }()
	}
	wg.Wait()
	t.probs[level] = ps
	return ps
}

// traceBased reports whether a Coster ignores wall time, letting the tuner
// skip high-precision timing loops.
func traceBased(c arch.Coster) bool {
	_, ok := c.(interface{ TraceBased() })
	return ok
}

// stepFunc advances one iteration of a candidate on (x, b).
type stepFunc func(x, b *grid.Grid, rec mg.Recorder)

// run executes one step on the tuner's books.
func (t *Tuner) run(step stepFunc, x, b *grid.Grid, rec mg.Recorder) {
	t.work.Steps++
	step(x, b, rec)
}

// accuracy evaluates the accuracy of x on the tuner's books.
func (t *Tuner) accuracy(p *problem.Problem, x *grid.Grid) float64 {
	t.work.AccuracyEvals++
	return p.AccuracyOf(x)
}

// meets counts on the tuner's books how many of targets x meets
// (problem.Problem.Meets).
func (t *Tuner) meets(p *problem.Problem, x *grid.Grid, targets []float64) int {
	t.work.AccuracyEvals++
	return p.Meets(x, targets)
}

// iterate is the grid a search runs its candidates on, reused for every
// candidate and training instance it measures: counting and timing load a
// starting state into it instead of allocating one. A level's two searches
// run side by side, so each has its own (see tuneLevel).
type iterate struct {
	x *grid.Grid
}

// start loads from — a problem's zero state or an estimate's result — into
// the iterate and returns it.
func (it *iterate) start(from *grid.Grid) *grid.Grid {
	if it.x == nil || it.x.N() != from.N() {
		it.x = from.Clone()
	} else {
		it.x.CopyFrom(from)
	}
	return it.x
}

// oneIter is what a step's iterations are priced from: the trace of one
// step and, under a clock, its wall time. tr stays nil until it is taken —
// under a trace coster by the first step count runs (see count), under a
// clock by timeOneIter before counting starts.
type oneIter struct {
	tr  *mg.OpTrace
	dur time.Duration
}

// oneIterOf returns step's oneIter: timed at once under a clock, left for
// counting to record under a trace coster.
func (t *Tuner) oneIterOf(probs []*problem.Problem, step stepFunc) *oneIter {
	if traceBased(t.cfg.Coster) {
		return &oneIter{}
	}
	return t.timeOneIter(probs, step)
}

// timeOneIter times one iteration of step on the first training instance
// under a clock and records its trace. The step is repeated adaptively
// until the sample is long enough to trust.
func (t *Tuner) timeOneIter(probs []*problem.Problem, step stepFunc) *oneIter {
	p := probs[0]
	one := &oneIter{tr: &mg.OpTrace{}}
	x := t.iter.start(p.Boundary)
	start := time.Now()
	t.run(step, x, p.B, one.tr)
	elapsed := time.Since(start)
	// Re-sample short steps in doubling batches (the step just timed is the
	// first) until one is long enough to trust, then keep the minimum (least
	// noise) of it and two more its size: ranking is only as good as these.
	const minSample = 200 * time.Microsecond
	batch, reps := elapsed, 1
	for batch < minSample && reps < 4096 {
		reps *= 2
		x = t.iter.start(p.Boundary)
		start = time.Now()
		for r := 0; r < reps; r++ {
			t.run(step, x, p.B, nil)
		}
		batch = time.Since(start)
		elapsed = batch / time.Duration(reps)
	}
	for sample := 0; sample < 2; sample++ {
		x = t.iter.start(p.Boundary)
		start = time.Now()
		for r := 0; r < reps; r++ {
			t.run(step, x, p.B, nil)
		}
		if d := time.Since(start) / time.Duration(reps); d < elapsed {
			elapsed = d
		}
	}
	one.dur = elapsed
	return one
}

// curve prices every iteration count a candidate may be assigned: at[n] is
// the cost of n iterations and floor[n] the cheapest of at[n:]. The bound
// compares floor, not at, because the Coster interface promises no shape in
// n: under a coster that prices a long run below a shorter one (the arch
// models did, for 3D shortcut solves of eight sweeps and more, while the
// colour-split layout existed; bound_test.go's dipping still does) a
// candidate dearer than the best now may yet undercut it later. A curve
// over a oneIter not yet taken is priced once count's first step takes it;
// at and floor are nil until then.
type curve struct {
	at, floor []float64
	cap       int
	cost      func(n int) float64
	one       *oneIter // what cost reads (nil: nothing to take)
}

// curveOf prices counts 0…cap by cost, which reads one: at once if one is
// taken or nil, else after count takes it.
func curveOf(cap int, one *oneIter, cost func(n int) float64) *curve {
	cv := &curve{cap: cap, cost: cost, one: one}
	if one == nil || one.tr != nil {
		cv.fill()
	}
	return cv
}

func (cv *curve) fill() {
	cv.at, cv.floor = make([]float64, cv.cap+1), make([]float64, cv.cap+2)
	cv.floor[cv.cap+1] = math.Inf(1)
	for n := cv.cap; n >= 0; n-- {
		cv.at[n] = cv.cost(n)
		cv.floor[n] = math.Min(cv.at[n], cv.floor[n+1])
	}
}

// price converts iteration counts into per-accuracy costs: +Inf where the
// count is −1, a target out of reach. A curve still unpriced after count
// saw no step run, so its counts are 0 or −1, and 0 iterations read no
// trace.
func (cv *curve) price(need []int) []float64 {
	costs := make([]float64, len(need))
	for i, n := range need {
		switch {
		case n < 0:
			costs[i] = math.Inf(1)
		case cv.at == nil:
			costs[i] = cv.cost(n)
		default:
			costs[i] = cv.at[n]
		}
	}
	return costs
}

// count runs step on every training instance — from its zero state, or from
// where the estimate from left it — and returns, per accuracy target, the
// most iterations any instance needed, or −1 for a target out of reach:
// an instance exhausted the curve's cap or was stopped by the bound short
// of it. Later instances stop where it stopped.
//
// best is the level's cheapest cost per target so far (nil: unbounded).
// Target t is lost at iteration it of an instance that has not met it once
// cv.floor[max(it+1, need[t])] > best[t]: its final count is at least
// need[t], what the instances before needed, and at least it+1, and floor
// is the least any count from there on costs. Strictly: a candidate that
// can still tie stays in, so selection sees every tie the exhaustive
// search would. An instance stops as soon as every target it has yet to
// meet is lost, each by its own bound. need[t] carries what instance 0
// proved into the instances after it: a target priced out there is lost
// in them from iteration 0, and they stop at the targets below it. A target
// met before it was lost keeps its count, priced above best.
//
// When cv waits for its oneIter, the first step runs before the bound is
// checked and records the trace the curve is then priced from; its
// accuracy is read only after the iteration-0 check, as if it had run
// after it. cut reports whether the bound stopped any instance.
func (t *Tuner) count(probs []*problem.Problem, from *estimate, step stepFunc, cv *curve, best []float64) (need []int, cut bool) {
	targets := t.cfg.Accuracies
	need = make([]int, len(targets))
	live := len(targets) // targets[live:] are out of reach
	lost := func(met, it int) bool {
		for i := met; i < live; i++ {
			if cv.floor[max(it+1, need[i])] <= best[i] {
				return false
			}
		}
		return true
	}
	for pi := 0; pi < len(probs) && live > 0; pi++ {
		p := probs[pi]
		x, met := p.Boundary, 0
		if from != nil {
			x = from.states[pi]
			for met < live && from.accs[pi] >= targets[met] {
				met++
			}
		}
		x = t.iter.start(x)
		for it := 0; met < live && it < cv.cap; it++ {
			stepped := false
			if cv.at == nil {
				cv.one.tr, stepped = &mg.OpTrace{}, true
				t.run(step, x, p.B, cv.one.tr)
				cv.fill()
			}
			if best != nil && lost(met, it) {
				cut = true
				break
			}
			if !stepped {
				t.run(step, x, p.B, nil)
			}
			for n := t.meets(p, x, targets[met:live]); n > 0; n-- {
				need[met] = max(need[met], it+1)
				met++
			}
		}
		live = met
	}
	for i := live; i < len(need); i++ {
		need[i] = -1
	}
	return need, cut
}

// search is the branch-and-bound over one level's n candidates, numbered in
// rank order. measure(c, best) prices candidate c per accuracy target given
// the cheapest cost per target so far. At a target where it proved c
// strictly dearer than best (see count) it may answer +Inf, or the price of
// a count above best: neither wins nor ties. Candidates are measured likely
// winners first — all but those last names, then those — and selected in
// rank order with a strict <, exactly as an exhaustive search selects:
// measurement order decides how early the bound bites, never which of two
// equally cheap candidates wins. win[i] is the chosen candidate for
// accuracy i, or −1 when none is feasible.
func (t *Tuner) search(n int, last func(c int) bool, measure func(c int, best []float64) []float64) (win []int) {
	var order, tail []int
	for c := 0; c < n; c++ {
		if last(c) {
			tail = append(tail, c)
		} else {
			order = append(order, c)
		}
	}
	order = append(order, tail...)
	if t.reorder != nil {
		t.reorder(order)
	}
	best := make([]float64, len(t.cfg.Accuracies))
	for i := range best {
		best[i] = math.Inf(1)
	}
	costs := make([][]float64, n)
	for _, c := range order {
		costs[c] = measure(c, best)
		for i, v := range costs[c] {
			best[i] = math.Min(best[i], v)
		}
	}
	win = make([]int, len(best))
	for i := range win {
		win[i] = -1
		lowest := math.Inf(1)
		for c := range costs {
			if costs[c][i] < lowest {
				win[i], lowest = c, costs[c][i]
			}
		}
	}
	return win
}

// candidate is one choice the V-table dynamic program can put in a cell.
// The direct solve has no step; an iterative choice says how to advance one
// iteration, how far to count, and how its one-iteration trace is priced.
type candidate struct {
	plan mg.Plan  // Iters is filled in per accuracy on selection
	step stepFunc // one iteration, its result visible in x
	cap  int      // iteration-count cap
}

// measured is one priced candidate for a level: either a direct solve
// (iters nil) or an iterative choice with per-accuracy iteration counts.
type measured struct {
	plan       mg.Plan
	iters      []int // per accuracy index; −1 = out of reach or lost
	costPerAcc []float64
}

// directCosts prices the direct choice at a level (identical for every
// accuracy target: the solve is exact), once per level — tuneLevel asks
// before its searches fork. A trace coster reads only the solve's trace,
// which is known without running it: one EvDirect at the level. A wall
// clock times the solve with its matrix factored, the cached solve that
// serving runs.
func (t *Tuner) directCosts(level int, probs []*problem.Problem) []float64 {
	cost, ok := t.direct[level]
	if !ok {
		if traceBased(t.cfg.Coster) {
			var tr mg.OpTrace
			tr.Record(mg.EvDirect, level, 1)
			cost = t.cfg.Coster.Cost(&tr, 0)
		} else {
			n := grid.SizeOfLevel(level)
			t.ws.FactorCache.GetOp(t.op.At(n), n)
			step := func(x, b *grid.Grid, rec mg.Recorder) { t.ws.SolveDirect(x, b, rec) }
			one := t.timeOneIter(probs, step)
			cost = t.cfg.Coster.Cost(one.tr, one.dur)
		}
		t.direct[level] = cost
	}
	costs := make([]float64, len(t.cfg.Accuracies))
	for i := range costs {
		costs[i] = cost
	}
	return costs
}

// measure prices candidate c at a level. What one iteration costs is
// known before counting reads an accuracy (see oneIter), so that counting
// can stop as soon as best (see count) rules the candidate out.
func (t *Tuner) measure(level int, c candidate, probs []*problem.Problem, best []float64) measured {
	t.work.Candidates++
	if c.plan.Choice == mg.ChoiceDirect {
		return measured{plan: c.plan, costPerAcc: t.directCosts(level, probs)}
	}
	one := t.oneIterOf(probs, c.step)
	var tr mg.OpTrace // the trace of n iterations, for each n in turn
	cv := curveOf(c.cap, one, func(n int) float64 {
		tr.Reset()
		tr.AddScaled(one.tr, n)
		return t.cfg.Coster.Cost(&tr, time.Duration(n)*one.dur)
	})
	iters, cut := t.count(probs, nil, c.step, cv, best)
	if cut {
		t.work.CutShort++
	}
	return measured{plan: c.plan, iters: iters, costPerAcc: cv.price(iters)}
}

// sorStep returns a one-sweep SOR step at the given level.
func (t *Tuner) sorStep(level int) stepFunc {
	omega := stencil.OmegaOpt(grid.SizeOfLevel(level))
	return func(x, b *grid.Grid, rec mg.Recorder) { t.ws.SOR(x, b, omega, 1, rec) }
}

// recurseCandidate is the RECURSE_j choice, whose coarse call uses the tuned
// sub-table rows ex.V already holds for coarser levels.
func (t *Tuner) recurseCandidate(ex *mg.Executor, j int) candidate {
	return candidate{
		plan: mg.Plan{Choice: mg.ChoiceRecurse, Sub: j},
		step: func(x, b *grid.Grid, rec mg.Recorder) {
			ex.Rec = rec
			ex.Recurse(x, b, j)
		},
		cap: t.cfg.MaxRecurseIters,
	}
}

// iterativeCandidates lists a level's iterative choices in rank
// order — iterated SOR, the standard V-cycle, RECURSE_j per accuracy j —
// the choices of a V cell and equally the solve phases of a full-multigrid
// cell. The V-cycle is the single-algorithm seed the PetaBricks population
// always keeps (§3.2.2), which guards the dynamic program against
// pathological greedy choices at coarser levels.
func (t *Tuner) iterativeCandidates(ex *mg.Executor, level int) []candidate {
	cands := []candidate{{
		plan: mg.Plan{Choice: mg.ChoiceSOR},
		step: t.sorStep(level),
		cap:  t.cfg.MaxSORIters,
	}, {
		plan: mg.Plan{Choice: mg.ChoiceVCycle},
		step: func(x, b *grid.Grid, rec mg.Recorder) { t.ws.RefVCycle(x, b, rec) },
		cap:  t.cfg.MaxRecurseIters,
	}}
	for j := range t.cfg.Accuracies {
		cands = append(cands, t.recurseCandidate(ex, j))
	}
	return cands
}

// vCandidates lists every choice for a V-table level in rank order, the
// order ties are broken in: direct (while it is explored), then the
// iterative choices.
func (t *Tuner) vCandidates(vt *mg.VTable, level int) []candidate {
	var cands []candidate
	if level <= t.cfg.DirectMaxLevel {
		cands = append(cands, candidate{plan: mg.Plan{Choice: mg.ChoiceDirect}})
	}
	return append(cands, t.iterativeCandidates(&mg.Executor{WS: t.ws, V: vt}, level)...)
}

// sorLast is the measurement order both tables use: the cycle choices set
// the bound within a handful of iterations, after which SOR — capped at
// hundreds of sweeps — is cut almost at once.
func sorLast(c mg.Choice) bool { return c == mg.ChoiceSOR }

// tuneLevel appends one level's row to vt and to ft (which the V search
// never reads): references and direct price first, then the two searches,
// the V one on a copy of the tuner with its own work books and iterate.
func (t *Tuner) tuneLevel(vt *mg.VTable, ft *mg.FTable, level int) {
	before := t.spent()
	probs := t.training(level)
	if level <= t.cfg.DirectMaxLevel {
		t.directCosts(level, probs)
	}
	v := *t
	v.work = Stats{}
	v.iter = &iterate{}
	var vrow []mg.Plan
	done := make(chan struct{})
	tuneV := func() { vrow = v.tuneVLevel(level, v.vCandidates(vt, level)); close(done) }
	if traceBased(t.cfg.Coster) {
		go tuneV()
	} else {
		tuneV()
	}
	frow := t.tuneFullLevel(vt, ft, level)
	ft.Plans = append(ft.Plans, frow)
	<-done
	t.work.Add(v.work)
	vt.Plans = append(vt.Plans, vrow)
	t.logf("level %d (N=%d): V %s; full %s [%s]", level, grid.SizeOfLevel(level), describe(vrow), describe(frow), t.charge(level, before))
}

// tuneVLevel picks, per accuracy target, the cheapest feasible of a level's
// V candidates (in rank order), measuring each only until it is known to
// lose (see search). It is the V tables' one selection loop: the tuned
// table's and every heuristic strategy's.
func (t *Tuner) tuneVLevel(level int, cands []candidate) []mg.Plan {
	probs := t.training(level)
	res := make([]measured, len(cands))
	win := t.search(len(cands),
		func(c int) bool { return sorLast(cands[c].plan.Choice) },
		func(c int, best []float64) []float64 {
			res[c] = t.measure(level, cands[c], probs, best)
			return res[c].costPerAcc
		})
	row := make([]mg.Plan, len(win))
	for i, w := range win {
		if w < 0 {
			// Every iterative choice missed the target and direct was not
			// explored; fall back to direct, which is always exact.
			t.logf("level %d acc %g: no feasible candidate, falling back to direct", level, t.cfg.Accuracies[i])
			row[i] = mg.Plan{Choice: mg.ChoiceDirect}
			continue
		}
		row[i] = withIters(res[w], i)
	}
	return row
}

// withIters materializes a candidate's plan for accuracy index i.
func withIters(c measured, i int) mg.Plan {
	p := c.plan
	if p.Choice != mg.ChoiceDirect {
		p.Iters = c.iters[i]
	}
	return p
}

// describe joins a row's cells as the progress lines print them.
func describe[P fmt.Stringer](row []P) string {
	cells := make([]string, len(row))
	for i, p := range row {
		cells[i] = p.String()
	}
	return strings.Join(cells, ", ")
}
