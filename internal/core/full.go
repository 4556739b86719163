package core

import (
	"time"

	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
)

// estimate is ESTIMATE_j run over a level's training data: the state and
// accuracy it leaves on each instance, and what one run costs.
type estimate struct {
	states []*grid.Grid
	accs   []float64
	one    *oneIter
}

// solvePhase is an iterative choice with what one iteration costs, shared
// by every estimate it follows.
type solvePhase struct {
	candidate
	one *oneIter
}

// fullCandidate is one choice for a FULL-MULTIGRID cell: direct (est and
// solve nil), or ESTIMATE_j followed by iterations of a solve phase.
type fullCandidate struct {
	plan  mg.FullPlan // Iters is filled in per accuracy on selection
	est   *estimate
	solve *solvePhase
}

// measuredFull is one priced FULL-MULTIGRID candidate.
type measuredFull struct {
	plan       mg.FullPlan
	iters      []int // solve-phase iterations per accuracy; −1 = out of reach or lost (nil for direct)
	costPerAcc []float64
}

// fullCandidates lists every choice for a full-multigrid level in rank
// order: direct (while it is explored), then per estimate accuracy j the
// solve phases in iterativeCandidates order. Estimates are run here, each
// once for the level. A solve phase is priced once for the level too — a
// step's trace and time do not depend on which estimate it follows — by
// the first step counting runs of it under a trace coster, timed here
// under a clock.
func (t *Tuner) fullCandidates(vt *mg.VTable, ft *mg.FTable, level int, probs []*problem.Problem) []fullCandidate {
	var cands []fullCandidate
	if level <= t.cfg.DirectMaxLevel {
		cands = append(cands, fullCandidate{plan: mg.FullPlan{Choice: mg.FullDirect}})
	}
	phases := make([]solvePhase, 0, 2+len(t.cfg.Accuracies))
	for _, c := range t.iterativeCandidates(&mg.Executor{WS: t.ws, V: vt}, level) {
		phases = append(phases, solvePhase{candidate: c, one: t.oneIterOf(probs, c.step)})
	}
	for j := range t.cfg.Accuracies {
		est := t.runEstimate(vt, ft, j, probs)
		for s := range phases {
			p := phases[s].plan
			cands = append(cands, fullCandidate{
				plan:  mg.FullPlan{Choice: mg.FullEstimate, EstAcc: j, Solve: p.Choice, SolveSub: p.Sub},
				est:   est,
				solve: &phases[s],
			})
		}
	}
	return cands
}

// runEstimate executes ESTIMATE_j once per training instance, keeping the
// post-estimate states and the accuracies already achieved. Under a trace
// coster the run on the first instance records the trace; a clock times
// one execution afterwards.
func (t *Tuner) runEstimate(vt *mg.VTable, ft *mg.FTable, j int, probs []*problem.Problem) *estimate {
	ex := &mg.Executor{WS: t.ws, V: vt, F: ft}
	step := func(x, b *grid.Grid, rec mg.Recorder) {
		ex.Rec = rec
		ex.Estimate(x, b, j)
	}
	est := &estimate{states: make([]*grid.Grid, len(probs)), accs: make([]float64, len(probs))}
	tr := &mg.OpTrace{}
	for i, p := range probs {
		var rec mg.Recorder
		if i == 0 && traceBased(t.cfg.Coster) {
			rec = tr
		}
		x := p.NewState()
		t.run(step, x, p.B, rec)
		est.states[i] = x
		est.accs[i] = t.accuracy(p, x)
	}
	if traceBased(t.cfg.Coster) {
		est.one = &oneIter{tr: tr}
	} else {
		est.one = t.timeOneIter(probs, step)
	}
	return est
}

// measureFull prices candidate c: the estimate's cost plus n solve-phase
// iterations from the estimated states, counted until best (see count)
// rules the candidate out. A target the estimate alone already meets needs
// zero iterations.
func (t *Tuner) measureFull(level int, c fullCandidate, probs []*problem.Problem, best []float64) measuredFull {
	t.work.Candidates++
	if c.plan.Choice == mg.FullDirect {
		return measuredFull{plan: c.plan, costPerAcc: t.directCosts(level, probs)}
	}
	est, solve := c.est.one, c.solve.one
	var total mg.OpTrace // the estimate and n iterations, for each n in turn
	cv := curveOf(c.solve.cap, solve, func(n int) float64 {
		total.Reset()
		total.Merge(est.tr)
		if n > 0 {
			total.AddScaled(solve.tr, n)
		}
		return t.cfg.Coster.Cost(&total, est.dur+time.Duration(n)*solve.dur)
	})
	iters, cut := t.count(probs, c.est, c.solve.step, cv, best)
	if cut {
		t.work.CutShort++
	}
	return measuredFull{plan: c.plan, iters: iters, costPerAcc: cv.price(iters)}
}

// tuneFullLevel compares, per accuracy target, a direct solve against every
// ESTIMATE_j followed by iterated SOR or RECURSE_k, j and k chosen
// independently as in the paper (§2.4), reading only rows below the level.
func (t *Tuner) tuneFullLevel(vt *mg.VTable, ft *mg.FTable, level int) []mg.FullPlan {
	probs := t.training(level)
	cands := t.fullCandidates(vt, ft, level, probs)
	res := make([]measuredFull, len(cands))
	win := t.search(len(cands),
		func(c int) bool { return sorLast(cands[c].plan.Solve) },
		func(c int, best []float64) []float64 {
			res[c] = t.measureFull(level, cands[c], probs, best)
			return res[c].costPerAcc
		})
	row := make([]mg.FullPlan, len(win))
	for i, w := range win {
		if w < 0 {
			t.logf("full level %d acc %g: no feasible candidate, falling back to direct", level, t.cfg.Accuracies[i])
			row[i] = mg.FullPlan{Choice: mg.FullDirect}
			continue
		}
		row[i] = withFullIters(res[w], i)
	}
	return row
}

// withFullIters materializes a candidate's plan for accuracy index i.
func withFullIters(c measuredFull, i int) mg.FullPlan {
	p := c.plan
	if p.Choice == mg.FullEstimate {
		p.Iters = c.iters[i]
	}
	return p
}
