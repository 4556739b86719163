package core

import "fmt"

// Stats counts the work a tuner spent. Under a trace-priced coster the
// counts are a function of the Config alone and repeat exactly from run to
// run, which makes them the way to compare two tuners: wall time measures
// the box as well.
type Stats struct {
	// Candidates is the number of candidates measured.
	Candidates int
	// CutShort is how many of those the bound stopped on some training
	// instance before the instance met, or ran out of iterations for, every
	// accuracy target.
	CutShort int
	// Steps is the number of candidate step executions (an ESTIMATE_j run is
	// one step). Under a trace coster each is a counted step or an estimate's
	// training run: the trace a price reads comes from one of those. Timing
	// steps exist only under WallClock (Tuner.timeOneIter).
	Steps int64
	// AccuracyEvals is the number of accuracy tests: problem.Problem.Meets
	// after a counted step, AccuracyOf after an estimate. Steps exceed them
	// by the first steps the bound then cut at iteration 0 (their accuracy is
	// never read) and, under WallClock, by the timing steps.
	AccuracyEvals int64
	// Factorizations is the number of band-Cholesky factorizations.
	Factorizations int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.CutShort += o.CutShort
	s.Steps += o.Steps
	s.AccuracyEvals += o.AccuracyEvals
	s.Factorizations += o.Factorizations
}

// String renders the counters the way the tuner's progress lines carry them.
func (s Stats) String() string {
	return fmt.Sprintf("%d candidates, %d cut short, %d steps, %d accuracy evals, %d factorizations",
		s.Candidates, s.CutShort, s.Steps, s.AccuracyEvals, s.Factorizations)
}

// LevelStats is the work charged to one tuned level, V and full tables
// together.
type LevelStats struct {
	Level int
	Stats
}

// Stats returns the work spent per tuned level so far, finest level last.
func (t *Tuner) Stats() []LevelStats {
	var out []LevelStats
	for level := 2; level <= t.cfg.MaxLevel; level++ {
		if s, ok := t.levels[level]; ok {
			out = append(out, LevelStats{Level: level, Stats: s})
		}
	}
	return out
}

// spent returns the tuner's running counters. Factorizations are the ones
// the tuner's factor cache ran, for candidates and reference solves alike.
func (t *Tuner) spent() Stats {
	s := t.work
	s.Factorizations = t.ws.FactorCache.Factorizations()
	return s
}

// charge books the work spent since before to a level and returns it.
func (t *Tuner) charge(level int, before Stats) Stats {
	d := t.spent()
	d.Candidates -= before.Candidates
	d.CutShort -= before.CutShort
	d.Steps -= before.Steps
	d.AccuracyEvals -= before.AccuracyEvals
	d.Factorizations -= before.Factorizations
	total := t.levels[level]
	total.Add(d)
	t.levels[level] = total
	return d
}
