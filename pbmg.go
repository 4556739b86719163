// Package pbmg is an autotuned multigrid solver for the 2D Poisson
// equation, a Go reproduction of "Autotuning Multigrid with PetaBricks"
// (Chan, Ansel, Wong, Amarasinghe, Edelman — SC'09).
//
// The package tunes, per machine and per requested accuracy, a hybrid
// algorithm that mixes direct band-Cholesky solves, red-black SOR, and
// recursive multigrid cycles whose shape is discovered by a bottom-up
// dynamic program over (recursion level, accuracy) cells. Typical use:
//
//	solver, err := pbmg.Tune(pbmg.Options{MaxSize: 257})
//	...
//	p := pbmg.NewProblem(257, pbmg.Unbiased, 42)
//	x := p.NewState()
//	err = solver.Solve(x, p.B, 1e7)
//
// Tuned configurations serialize to JSON (Solver.Save / Load) so a machine
// is tuned once and the result reused, exactly like PetaBricks
// configuration files.
//
// A Solver is safe for concurrent use: the tuned tables are immutable, the
// worker pool supports concurrent callers, and all per-solve scratch state
// is checked out from an internal arena. One tuned Solver can therefore
// serve many simultaneous solves, from plain goroutines or through a
// Service, which bounds the solves in flight and fans out batches.
package pbmg

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/refsol"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// Grid is a square N×N (2D) or cubic N×N×N (3D) grid of float64 values in
// one flat slice. NewGrid makes a 2D one, and Problem.NewState the state
// grid of a problem of either dimension; Grid.Dim reports which kind a grid
// is, and dimension-specific accessors reject the other kind.
type Grid = grid.Grid

// NewGrid returns a zero-filled 2D n×n grid.
func NewGrid(n int) *Grid { return grid.New(n) }

// Distribution selects a training/benchmark data distribution from §4 of
// the paper.
type Distribution = grid.Distribution

// Training distributions: unbiased uniform over [−2³², 2³²], the same
// shifted by +2³¹, and random point sources.
const (
	Unbiased     = grid.Unbiased
	Biased       = grid.Biased
	PointSources = grid.PointSources
)

// Problem is one operator problem instance.
type Problem = problem.Problem

// Family selects an operator family. The solver tunes each family
// independently: the same dynamic program, run under a family's kernels,
// discovers a different optimal cycle shape (most visibly for strong
// anisotropy, where smoothing loses power and direct solves win deeper).
type Family = stencil.Family

// Operator families: the paper's constant-coefficient Poisson operator −∇²,
// the anisotropic operator −(ε·∂²/∂x² + ∂²/∂y²), the variable-coefficient
// operator −∇·(c∇u) with the built-in smooth positive coefficient field of
// contrast parameter σ, and the 3D Poisson operator (7-point stencil on an
// N×N×N cube — the paper's headline scaling case). Families carry their
// spatial dimension (Family.Dim); 3D solvers work on the grids of a 3D
// problem (NewFamilyProblem).
const (
	FamilyPoisson     = stencil.FamilyPoisson
	FamilyAnisotropic = stencil.FamilyAnisotropic
	FamilyVarCoef     = stencil.FamilyVarCoef
	FamilyPoisson3D   = stencil.FamilyPoisson3D
)

// ParseFamily parses a family name ("poisson", "aniso", "varcoef",
// "poisson3d").
func ParseFamily(s string) (Family, error) { return stencil.ParseFamily(s) }

// ParseDistribution parses a distribution name ("unbiased", "biased",
// "point-sources").
func ParseDistribution(s string) (Distribution, error) {
	d, ok := grid.ParseDistribution(s)
	if !ok {
		return 0, fmt.Errorf("unknown distribution %q", s)
	}
	return d, nil
}

// FamilyHasParam reports whether the family carries a tunable parameter
// (anisotropy ratio ε or coefficient contrast σ); the 2D and 3D Laplacians
// are parameterless.
func FamilyHasParam(f Family) bool { return core.FamilyHasParam(f) }

// CheckFamilyFlags validates CLI-style -family/-epsilon overrides against a
// loaded solver: tuned tables are family-specific, so a mismatch would
// silently solve the wrong operator. Empty family and zero epsilon mean
// "use the configuration's values" and always pass; epsilon is only checked
// for parameterized families. The error names the configuration path and
// how to re-tune.
func (s *Solver) CheckFamilyFlags(config, family string, epsilon float64) error {
	if family != "" {
		f, err := ParseFamily(family)
		if err != nil {
			return err
		}
		if f != s.Family() {
			return fmt.Errorf("configuration %s is tuned for family %s, not %s; re-tune with mgtune -family %s",
				config, s.Family(), f, f)
		}
	}
	if epsilon != 0 && FamilyHasParam(s.Family()) && epsilon != s.Epsilon() {
		return fmt.Errorf("configuration %s is tuned for eps %g, not %g; re-tune with mgtune -family %s -epsilon %g",
			config, s.Epsilon(), epsilon, s.Family(), epsilon)
	}
	return nil
}

// NewProblem draws a random constant-coefficient Poisson problem of side n
// (must be 2^k+1) from the given distribution.
func NewProblem(n int, dist Distribution, seed int64) *Problem {
	return problem.RandomOp(n, dist, rand.New(rand.NewSource(seed)), stencil.Poisson())
}

// NewFamilyProblem draws a random problem of side n for the given operator
// family. eps is the anisotropy ratio ε (FamilyAnisotropic) or the
// coefficient contrast σ (FamilyVarCoef); zero selects the family default.
// Solve it with a Solver tuned for the same family and parameter.
func NewFamilyProblem(n int, dist Distribution, seed int64, f Family, eps float64) (*Problem, error) {
	op, err := stencil.NewOperator(f, core.ResolveEps(f, eps), n)
	if err != nil {
		return nil, err
	}
	return problem.RandomOp(n, dist, rand.New(rand.NewSource(seed)), op.At(n)), nil
}

// Reference computes the problem's near-exact solution and attaches it, so
// Problem.AccuracyOf can grade solver outputs.
func Reference(p *Problem) *Grid {
	refsol.Attach(p, nil, nil)
	return p.Optimal()
}

// Options configures Tune.
type Options struct {
	// MaxSize is the finest grid side the solver will handle; must be
	// 2^k + 1 with k ≥ 2.
	MaxSize int
	// Family selects the operator family to tune for (default FamilyPoisson).
	Family Family
	// Epsilon is the family parameter: anisotropy ratio ε for
	// FamilyAnisotropic, coefficient contrast σ for FamilyVarCoef. Zero
	// selects the family default; ignored for FamilyPoisson.
	Epsilon float64
	// Accuracies are the discrete accuracy targets (default: the paper's
	// 10, 10³, 10⁵, 10⁷, 10⁹).
	Accuracies []float64
	// Distribution is the training distribution (default Unbiased).
	Distribution Distribution
	// Machine selects a simulated architecture cost model by name
	// ("intel-harpertown", "amd-barcelona", "sun-niagara"); empty tunes for
	// the host machine by wall clock.
	Machine string
	// Workers sets the worker-pool size for parallel kernels (0: serial).
	// It is the kernels' width only: under a simulated machine the tuner
	// also runs each level's V and full-multigrid searches side by side,
	// whatever Workers says.
	Workers int
	// Seed fixes the training data.
	Seed int64
	// Logf, when non-nil, receives tuning progress lines.
	Logf func(format string, args ...any)
}

// Solver is a tuned multigrid solver. Create with Tune or Load; release
// with Close.
//
// A Solver is safe for concurrent use: any number of goroutines may call
// Solve, SolveContext, SolveV, SolveTraced, CycleShape, and Describe
// simultaneously on one Solver, sharing its tuned tables, worker pool, and
// direct-factor cache. For admission (a cap on solves in flight, a queue,
// a circuit breaker) and batches, Save its tables and serve them through a
// Registry (LoadDir), which wraps each family's Solver in a Service. Close
// must not be called while solves are in flight.
type Solver struct {
	tuned *core.Tuned
	ws    *mg.Workspace
	pool  *sched.Pool

	// tuneStats is what tuning this solver took (zero for a loaded one).
	tuneStats TuneStats
}

// ErrCancelled marks a solve aborted between cycles or levels because its
// context was done. The error also wraps the context's own sentinel
// (context.Canceled or context.DeadlineExceeded).
var ErrCancelled = mg.ErrCancelled

// ErrDiverged marks a solve whose answer came out non-finite.
var ErrDiverged = mg.ErrDiverged

// TuneStats is what the autotuner spent producing a solver's tables: wall
// seconds, and work counters summed over every tuned level. Under a
// simulated machine the counters repeat exactly for given Options.
type TuneStats struct {
	Seconds float64
	core.Stats
}

// String renders the stats as one log line.
func (ts TuneStats) String() string {
	return fmt.Sprintf("%.2fs, %s", ts.Seconds, ts.Stats)
}

// Tune trains a solver for the given options by running the paper's
// dynamic-programming autotuner.
func Tune(o Options) (*Solver, error) {
	level := grid.Level(o.MaxSize)
	if level < 2 {
		return nil, fmt.Errorf("pbmg: MaxSize must be 2^k+1 with k ≥ 2, got %d", o.MaxSize)
	}
	var coster arch.Coster = arch.WallClock{}
	if o.Machine != "" {
		m, err := arch.ByName(o.Machine)
		if err != nil {
			return nil, err
		}
		coster = m
	}
	pool := newPool(o.Workers)
	tn, err := core.New(core.Config{
		Accuracies:   o.Accuracies,
		MaxLevel:     level,
		Family:       o.Family,
		Eps:          o.Epsilon,
		Distribution: o.Distribution,
		Seed:         o.Seed,
		Coster:       coster,
		Pool:         pool,
		Logf:         o.Logf,
	})
	if err != nil {
		closePool(pool)
		return nil, err
	}
	start := time.Now()
	tuned, err := tn.Tune()
	if err != nil {
		closePool(pool)
		return nil, err
	}
	s, err := newSolver(tuned, pool)
	if err != nil {
		return nil, err
	}
	s.tuneStats.Seconds = time.Since(start).Seconds()
	for _, ls := range tn.Stats() {
		s.tuneStats.Add(ls.Stats)
	}
	return s, nil
}

// Load reads a tuned configuration written by Save. Workers configures the
// worker pool for this process (0: serial).
func Load(path string, workers int) (*Solver, error) {
	tuned, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	return newSolver(tuned, newPool(workers))
}

// newSolver builds a solver on tuned tables that owns pool (nil: serial),
// closing the pool if the tables are unusable.
func newSolver(tuned *core.Tuned, pool *sched.Pool) (*Solver, error) {
	op, err := tuned.OperatorValue()
	if err != nil {
		closePool(pool)
		return nil, err
	}
	return &Solver{tuned: tuned, ws: mg.NewWorkspace(pool, op), pool: pool}, nil
}

// newPool returns a worker pool of the given width, or nil (serial) for a
// width of one or less.
func newPool(workers int) *sched.Pool {
	if workers <= 1 {
		return nil
	}
	return sched.NewPool(workers)
}

func closePool(p *sched.Pool) {
	if p != nil {
		p.Close()
	}
}

// Close releases the solver's worker pool.
func (s *Solver) Close() { closePool(s.pool) }

// Save writes the tuned configuration as JSON.
func (s *Solver) Save(path string) error { return s.tuned.Save(path) }

// Machine returns the name of the cost model the solver was tuned for.
func (s *Solver) Machine() string { return s.tuned.Machine }

// TuneStats returns what tuning this solver took; the zero value for a
// solver loaded from a saved configuration.
func (s *Solver) TuneStats() TuneStats { return s.tuneStats }

// PoolSteals returns how many loop chunks the worker pool's workers (not
// the solving goroutines) have run so far (0 for a serial solver) —
// scheduler visibility for benchmark reports.
func (s *Solver) PoolSteals() int64 {
	if s.pool == nil {
		return 0
	}
	return s.pool.Steals()
}

// Family returns the operator family the solver was tuned for.
func (s *Solver) Family() Family { return s.ws.Operator().Family() }

// Dim returns the solver's spatial dimension (2, or 3 for FamilyPoisson3D):
// states passed to Solve must be grids of this dimension.
func (s *Solver) Dim() int { return s.ws.Operator().Dim() }

// Epsilon returns the operator family parameter (ε or σ; 1 for Poisson).
func (s *Solver) Epsilon() float64 { return s.ws.Operator().Eps() }

// NewFamilyProblem draws a random problem matched to the solver's operator
// family and parameter, sharing the solver's operator hierarchy.
func (s *Solver) NewFamilyProblem(n int, dist Distribution, seed int64) (*Problem, error) {
	if err := s.checkSizeN(n); err != nil {
		return nil, err
	}
	op := s.ws.Operator().At(n)
	return problem.RandomOp(n, dist, rand.New(rand.NewSource(seed)), op), nil
}

// MaxSize returns the finest grid side the solver was tuned for.
func (s *Solver) MaxSize() int { return grid.SizeOfLevel(s.tuned.MaxLevel) }

// Accuracies returns the discrete accuracy targets of the tuned tables.
func (s *Solver) Accuracies() []float64 {
	return append([]float64(nil), s.tuned.V.Acc...)
}

// accIndex returns the index of the smallest tuned target ≥ accuracy.
func (s *Solver) accIndex(accuracy float64) (int, error) {
	for i, a := range s.tuned.V.Acc {
		if a >= accuracy {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pbmg: accuracy %g exceeds tuned maximum %g",
		accuracy, s.tuned.V.Acc[len(s.tuned.V.Acc)-1])
}

// checkGrids verifies a solve's grids before any kernel touches
// them: both are present, x has the solver's dimension and a side in the
// tuned range, and b has x's dimension and side. A missing or mismatched grid
// is the caller's error, never a panic.
func (s *Solver) checkGrids(x, b *Grid) error {
	if x == nil || b == nil {
		return fmt.Errorf("pbmg: solve needs a state and a right-hand side, got a nil grid")
	}
	if x.Dim() != s.Dim() {
		return fmt.Errorf("pbmg: state is %s but the solver is %dD", shape(x), s.Dim())
	}
	if b.Dim() != x.Dim() || b.N() != x.N() {
		return fmt.Errorf("pbmg: right-hand side is %s but the state is %s", shape(b), shape(x))
	}
	return s.checkSizeN(x.N())
}

// shape names a grid's dimension and side, e.g. "2D N=33".
func shape(g *Grid) string { return fmt.Sprintf("%dD N=%d", g.Dim(), g.N()) }

func (s *Solver) checkSizeN(n int) error {
	level := grid.Level(n)
	if level < 1 {
		return fmt.Errorf("pbmg: grid side %d is not 2^k+1", n)
	}
	if level > s.tuned.MaxLevel {
		return fmt.Errorf("pbmg: grid side %d exceeds tuned maximum %d", n, s.MaxSize())
	}
	return nil
}

// SolveV solves T·x = b in place with the tuned MULTIGRID-V algorithm for
// the smallest tuned target ≥ accuracy. x supplies the Dirichlet boundary
// and initial guess. Solve already runs a level's V cell wherever it is the
// cheaper; SolveV is kept because `bench/` times the V table alone
// (`mg.vcycle`).
func (s *Solver) SolveV(x, b *Grid, accuracy float64) error {
	return s.solve(x, b, accuracy, false, nil)
}

// Solve solves T·x = b in place with the tuned FULL-MULTIGRID algorithm,
// the paper's best-performing family. Each of its cells is the cheaper of
// the tuned estimate-and-solve (or direct) plan and the level's tuned V
// cell, so Solve is never dearer, under the tuning cost, than SolveV.
func (s *Solver) Solve(x, b *Grid, accuracy float64) error {
	return s.solve(x, b, accuracy, true, nil)
}

// SolveContext is Solve with cooperative cancellation: the solve polls ctx
// between V-cycles and between levels of deep cycles, and once ctx is done
// it aborts within roughly one cycle's latency with an error wrapping both
// ErrCancelled and the context's own sentinel. All pooled scratch is
// returned on the abort path; the grid x is left mid-iteration and must not
// be reused as a partial answer.
func (s *Solver) SolveContext(ctx context.Context, x, b *Grid, accuracy float64) error {
	return s.solveCtx(ctx, x, b, accuracy, true, nil)
}

// Escalations returns 0: every cell runs in float64, so no solve is ever
// retried at a wider precision. Kept for `bench/`; goes with ROADMAP item
// 0's benchmark PR.
func (s *Solver) Escalations() int64 { return 0 }

func (s *Solver) solve(x, b *Grid, accuracy float64, full bool, rec mg.Recorder) error {
	return s.solveCtx(nil, x, b, accuracy, full, rec)
}

// solveCtx runs one tuned solve with the full control plane: cooperative
// cancellation from ctx (nil: none), and a vet of the answer that reports a
// non-finite one as ErrDiverged.
func (s *Solver) solveCtx(ctx context.Context, x, b *Grid, accuracy float64, full bool, rec mg.Recorder) error {
	if err := s.checkGrids(x, b); err != nil {
		return err
	}
	idx, err := s.accIndex(accuracy)
	if err != nil {
		return err
	}
	// One executor per solve keeps the recorder and context private to this
	// call; the workspace and tables behind it are shared and
	// concurrency-safe.
	ex := mg.Executor{WS: s.ws, V: s.tuned.V, F: s.tuned.F, Rec: rec}
	// ctx.Done is asked for once per solve, here, inside the admission slot:
	// serve's occupy test helper holds a running slot by blocking in this
	// call (heldContext), and TestFramingsAgree panics in it
	// (poisonedContext) to trip the breaker.
	if ctx != nil && ctx.Done() != nil {
		ex.Ctx = ctx
	}
	err = mg.Catch(func() {
		if full {
			ex.SolveFull(x, b, idx)
		} else {
			ex.SolveV(x, b, idx)
		}
	})
	if err == nil && grid.HasNonFinite(x) {
		// The cycles carry no divergence guards, so vet every answer here —
		// a serving layer must never hand back a NaN grid as a success.
		err = fmt.Errorf("%w: solve produced a non-finite iterate", mg.ErrDiverged)
	}
	return err
}

// CycleShape renders the tuned cycle Solve would execute for a problem of
// side n at the given accuracy, in the ASCII notation of the paper's
// Figure 5 ('o' relaxation, '\' restrict, '/' interpolate, 'D' direct
// solve, '~k~' k SOR sweeps).
func (s *Solver) CycleShape(n int, accuracy float64) (string, error) {
	if lvl := grid.Level(n); lvl < 1 || lvl > s.tuned.MaxLevel {
		return "", fmt.Errorf("pbmg: size %d outside tuned range", n)
	}
	idx, err := s.accIndex(accuracy)
	if err != nil {
		return "", err
	}
	// Execute the plan on a scratch problem, recording the shape. Cycle
	// structure is data-independent, so any instance yields the shape.
	p, err := s.NewFamilyProblem(n, s.tuned.DistributionValue(), 1)
	if err != nil {
		return "", err
	}
	var log mg.ShapeLog
	x := p.NewState()
	if err := s.solve(x, p.B, s.tuned.V.Acc[idx], true, &log); err != nil {
		return "", err
	}
	return mg.RenderShape(&log), nil
}

// Describe prints the tuned call tree Solve runs (the paper's Figure 4
// view) for a problem of side n at the given accuracy.
func (s *Solver) Describe(n int, accuracy float64) (string, error) {
	level := grid.Level(n)
	if level < 1 || level > s.tuned.MaxLevel {
		return "", fmt.Errorf("pbmg: size %d outside tuned range", n)
	}
	idx, err := s.accIndex(accuracy)
	if err != nil {
		return "", err
	}
	return mg.DescribeFull(s.tuned.F, s.tuned.V, level, idx), nil
}

// SolveTraced solves T·x = b like Solve while recording every executed
// operation into rec — the hook benchmark harnesses use to account work
// (sweeps, direct solves) alongside wall time.
func (s *Solver) SolveTraced(x, b *Grid, accuracy float64, rec mg.Recorder) error {
	return s.solve(x, b, accuracy, true, rec)
}

// Tuned exposes the underlying tuned bundle for advanced use (experiment
// harnesses, cross-architecture evaluation).
func (s *Solver) Tuned() *core.Tuned { return s.tuned }

// Workspace exposes the solver's workspace for advanced use alongside the
// internal executors.
func (s *Solver) Workspace() *mg.Workspace { return s.ws }
