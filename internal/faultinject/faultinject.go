//go:build faultinject

// Package faultinject is the chaos-testing switchboard: named injection
// points compiled into the solver and serving layers fire armed faults —
// delays, panics, errors, NaN poisoning — so the failure-hardening paths
// (cancellation, divergence, panic containment, the circuit
// breaker) can be driven deterministically by tests and by the /-/fault
// endpoint of a chaos build.
//
// The package has two editions selected by the `faultinject` build tag.
// This one (tag present) carries the real registry; the default edition is
// a set of empty stubs with Enabled = false, so every hook of the form
//
//	if faultinject.Enabled {
//	    faultinject.Point("mg.cycle")
//	}
//
// is dead code the compiler eliminates — production binaries pay nothing,
// which the escape gate and kernel benchmarks hold them to.
//
// Faults are armed programmatically (Arm), from a spec string (ArmSpec,
// also the body of POST /-/fault), or from the PBMG_FAULTS environment
// variable at process start. A spec is a ';'-separated list of items
//
//	name:kind[,key=value...]
//
// where kind is one of delay, panic, error, nan, and the keys are
// after=N (skip the first N hits), count=N (fire at most N times),
// level=L (PointLevel sites fire only at grid level L), and delay=D
// (a time.ParseDuration value for the delay kind). For example:
//
//	stencil.sweep:delay,delay=50ms;mg.cycle:panic,count=1
//	mg.cycle.nan:nan,level=5
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Enabled reports whether the binary was built with the faultinject tag.
// Hooks gate on it so the stub edition's calls are eliminated entirely.
const Enabled = true

// Kind is the action an armed fault performs when its point is hit.
type Kind string

const (
	// KindDelay sleeps the fault's Delay at the point (slow kernels, pool
	// starvation).
	KindDelay Kind = "delay"
	// KindPanic panics at the point with a recognizable value.
	KindPanic Kind = "panic"
	// KindError makes PointErr return an error (broken catalog reload).
	KindError Kind = "error"
	// KindNaN makes PointLevel report true, telling the site to poison its
	// state (the site owns the write; the registry only picks the moment).
	KindNaN Kind = "nan"
)

// Fault is one armed injection.
type Fault struct {
	// Kind selects the action.
	Kind Kind
	// After skips the first After hits of the point before firing.
	After int
	// Count bounds how many times the fault fires (≤ 0: every hit).
	Count int
	// Level, when ≥ 0, restricts PointLevel sites to one grid level.
	Level int
	// Delay is the sleep for KindDelay.
	Delay time.Duration
}

// fault is a Fault plus its hit accounting.
type fault struct {
	mu    sync.Mutex
	f     Fault
	hits  int
	fired int
}

// take consumes one hit and reports whether the fault fires on it.
func (f *fault) take() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hits++
	if f.hits <= f.f.After {
		return false
	}
	if f.f.Count > 0 && f.fired >= f.f.Count {
		return false
	}
	f.fired++
	return true
}

var (
	mu    sync.RWMutex
	armed = map[string]*fault{}
)

// Arm installs (or replaces) the fault for one point name.
func Arm(name string, f Fault) {
	if f.Level == 0 {
		// Level 0 does not exist (grids start at level 1), so the zero value
		// means "any level".
		f.Level = -1
	}
	mu.Lock()
	armed[name] = &fault{f: f}
	mu.Unlock()
}

// Clear disarms every fault.
func Clear() {
	mu.Lock()
	armed = map[string]*fault{}
	mu.Unlock()
}

// Armed lists the armed point names, for the /-/fault answer.
func Armed() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(armed))
	for name := range armed {
		names = append(names, name)
	}
	return names
}

// lookup resolves a point's armed fault, nil when none.
func lookup(name string) *fault {
	mu.RLock()
	f := armed[name]
	mu.RUnlock()
	return f
}

// Point fires a delay or panic fault armed at name; other kinds and
// unarmed points are no-ops.
func Point(name string) {
	f := lookup(name)
	if f == nil {
		return
	}
	switch f.f.Kind {
	case KindDelay:
		if f.take() {
			time.Sleep(f.f.Delay)
		}
	case KindPanic:
		if f.take() {
			panic(fmt.Sprintf("faultinject: injected panic at %s", name))
		}
	}
}

// PointLevel reports whether the site at name should inject for grid level
// level — the NaN-poisoning sites ask it and own the actual write.
func PointLevel(name string, level int) bool {
	f := lookup(name)
	if f == nil || f.f.Kind != KindNaN {
		return false
	}
	if f.f.Level >= 0 && f.f.Level != level {
		return false
	}
	return f.take()
}

// PointErr returns an injected error when an error fault is armed at name,
// nil otherwise.
func PointErr(name string) error {
	f := lookup(name)
	if f == nil || f.f.Kind != KindError {
		return nil
	}
	if !f.take() {
		return nil
	}
	return fmt.Errorf("faultinject: injected error at %s", name)
}

// ArmSpec arms every fault of a spec string (see the package comment for
// the syntax). Parsing is all-or-nothing: on error nothing is armed.
func ArmSpec(spec string) error {
	type item struct {
		name string
		f    Fault
	}
	var items []item
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		name, rest, ok := strings.Cut(raw, ":")
		if !ok {
			return fmt.Errorf("faultinject: %q is not name:kind[,key=value...]", raw)
		}
		parts := strings.Split(rest, ",")
		f := Fault{Kind: Kind(parts[0])}
		switch f.Kind {
		case KindDelay, KindPanic, KindError, KindNaN:
		default:
			return fmt.Errorf("faultinject: %q: unknown kind %q", raw, parts[0])
		}
		for _, kv := range parts[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("faultinject: %q: %q is not key=value", raw, kv)
			}
			var err error
			switch key {
			case "after":
				f.After, err = strconv.Atoi(val)
			case "count":
				f.Count, err = strconv.Atoi(val)
			case "level":
				f.Level, err = strconv.Atoi(val)
			case "delay":
				f.Delay, err = time.ParseDuration(val)
			default:
				err = fmt.Errorf("unknown key %q", key)
			}
			if err != nil {
				return fmt.Errorf("faultinject: %q: %v", raw, err)
			}
		}
		items = append(items, item{name: strings.TrimSpace(name), f: f})
	}
	if len(items) == 0 {
		return fmt.Errorf("faultinject: spec %q names no faults", spec)
	}
	for _, it := range items {
		Arm(it.name, it.f)
	}
	return nil
}

// init arms faults named by the PBMG_FAULTS environment variable, so a
// chaos-build daemon can start pre-poisoned without an extra request.
func init() {
	if spec := os.Getenv("PBMG_FAULTS"); spec != "" {
		if err := ArmSpec(spec); err != nil {
			panic(err)
		}
	}
}
