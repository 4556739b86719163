package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public entry point. Spans of one op share Op. Parent names the
// span whose interval this one accounts for: a rung's parent is the next
// rung up executing the same request (run separately, bottom-up, so a child
// does not lie inside its parent on the clock), and a kernel event's parent
// is the traced solve that emitted it.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // 0: a root
	Op      int    `json:"op"`
	// Level is the multigrid level of a kernel event (0 otherwise); Count its
	// sweep count.
	Level int `json:"level,omitempty"`
	Count int `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the benchmark ends. The traced pass
// runs on one goroutine, so it needs no lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reserve hands out a span ID before the span is timed, so that children
// executed first can name their parent.
func (t *tracer) reserve() int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

// timed runs f and stores its interval under a reserved ID.
func (t *tracer) timed(id int, name string, parent, op int, f func()) time.Duration {
	start := t.now()
	f()
	end := t.now()
	t.spans[id-1] = span{ID: id, Name: name, StartNs: start, EndNs: end, Parent: parent, Op: op}
	return time.Duration(end - start)
}

// add appends a finished span.
func (t *tracer) add(s span) {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
}

// selfTimes returns every span's duration minus the part its children
// account for, clamped at zero: separately-timed rungs can come out a hair
// longer than the rung above on a noisy host.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// subtreeSelf sums self times over the tree under root (root included).
func subtreeSelf(spans []span, self map[int]time.Duration, root int) time.Duration {
	children := make(map[int][]int)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	var sum time.Duration
	var walk func(id int)
	walk = func(id int) {
		sum += self[id]
		for _, c := range children[id] {
			walk(c)
		}
	}
	walk(root)
	return sum
}

// traceFile is what the traced pass leaves in bench/out/.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	self := selfTimes(t.spans)
	byName := make(map[string]float64)
	for _, s := range t.spans {
		byName[s.Name] += ms(self[s.ID])
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfMs: byName, Spans: t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
