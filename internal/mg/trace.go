// Package mg implements the multigrid cycles of the paper: the reference
// V-cycle and full-multigrid algorithms, and the executors for the tuned
// algorithm families MULTIGRID-Vᵢ / RECURSEᵢ / FULL-MULTIGRIDᵢ / ESTIMATEᵢ
// (§2.1–2.4). Executions can be recorded as operation traces — both
// per-level counts (priced by architecture cost models) and ordered event
// logs (rendered as the cycle-shape diagrams of Figures 5 and 14).
package mg

import "fmt"

// EventKind identifies one multigrid operation for tracing.
type EventKind int

const (
	// EvRelax is one red-black SOR smoothing sweep at a level.
	EvRelax EventKind = iota
	// EvResidual is one residual evaluation at a level.
	EvResidual
	// EvRestrict is one fine→coarse restriction departing a level.
	EvRestrict
	// EvInterp is one coarse→fine interpolation (+correction) arriving at a level.
	EvInterp
	// EvDirect is one band-Cholesky direct solve at a level.
	EvDirect
	// EvIterSolve is an SOR shortcut solve at a level (count = sweeps).
	EvIterSolve
	numEventKinds
)

// String returns a short name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EvRelax:
		return "relax"
	case EvResidual:
		return "residual"
	case EvRestrict:
		return "restrict"
	case EvInterp:
		return "interp"
	case EvDirect:
		return "direct"
	case EvIterSolve:
		return "iter-solve"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Recorder receives operation events from executors. Implementations must
// tolerate any level ≥ 1. A nil Recorder is always allowed and records
// nothing (executors check).
type Recorder interface {
	Record(kind EventKind, level, count int)
}

// record forwards an event to rec, if non-nil.
func record(rec Recorder, kind EventKind, level, count int) {
	if rec != nil {
		rec.Record(kind, level, count)
	}
}

// OpTrace accumulates per-level counts of each operation kind. The zero
// value is an empty trace ready for use. OpTrace is the currency between
// executions and architecture cost models: run once, price under any
// model.
type OpTrace struct {
	counts [numEventKinds][]int64 // [kind][level]
}

// Record implements Recorder.
func (t *OpTrace) Record(kind EventKind, level, count int) {
	if level < 0 || kind < 0 || kind >= numEventKinds {
		panic(fmt.Sprintf("mg: bad trace record kind=%d level=%d", kind, level))
	}
	c := &t.counts[kind]
	for len(*c) <= level {
		*c = append(*c, 0)
	}
	(*c)[level] += int64(count)
}

// Count returns the accumulated count for kind at level.
func (t *OpTrace) Count(kind EventKind, level int) int64 {
	if kind < 0 || kind >= numEventKinds || level < 0 || level >= len(t.counts[kind]) {
		return 0
	}
	return t.counts[kind][level]
}

// MaxLevel returns the highest level with any recorded operation, or 0.
func (t *OpTrace) MaxLevel() int {
	max := 0
	for k := range t.counts {
		if l := len(t.counts[k]) - 1; l > max {
			max = l
		}
	}
	return max
}

// Total returns the total count of kind across all levels.
func (t *OpTrace) Total(kind EventKind) int64 {
	var s int64
	for l := 0; l <= t.MaxLevel(); l++ {
		s += t.Count(kind, l)
	}
	return s
}

// Reset clears the trace for reuse.
func (t *OpTrace) Reset() {
	for k := range t.counts {
		t.counts[k] = t.counts[k][:0]
	}
}

// AddScaled adds n times other's counts into t. Iterative choices repeat
// identical work, so the trace of n iterations is the one-iteration trace
// added n times; the tuner exploits this to price candidates without
// re-running them, into one trace it resets between counts.
func (t *OpTrace) AddScaled(other *OpTrace, n int) {
	for k := EvRelax; k < numEventKinds; k++ {
		for l, c := range other.counts[k] {
			if c != 0 {
				t.Record(k, l, int(c)*n)
			}
		}
	}
}

// Merge adds other's counts into t.
func (t *OpTrace) Merge(other *OpTrace) { t.AddScaled(other, 1) }

// Event is one ordered operation in a ShapeLog.
type Event struct {
	Kind  EventKind
	Level int
	Count int
}

// ShapeLog records the ordered sequence of operations of an execution, the
// raw material for cycle-shape rendering (Figure 5) and for the call-stack
// traces (Figure 4).
type ShapeLog struct {
	Events []Event
}

// Record implements Recorder, merging consecutive relaxations at one level.
func (s *ShapeLog) Record(kind EventKind, level, count int) {
	if n := len(s.Events); n > 0 && kind == EvRelax {
		if last := &s.Events[n-1]; last.Kind == EvRelax && last.Level == level {
			last.Count += count
			return
		}
	}
	s.Events = append(s.Events, Event{Kind: kind, Level: level, Count: count})
}

// Reset clears the log for reuse.
func (s *ShapeLog) Reset() { s.Events = s.Events[:0] }
