package pbmg

import (
	"errors"
	"fmt"
	"time"
)

// This file is the failure-containment half of the serving front end: typed
// errors for solves that panicked inside the kernels, and a per-family
// circuit breaker that stops feeding requests to a solver whose
// infrastructure is failing (consecutive diverged or panicked solves) until
// a half-open probe proves it healthy again. Client-caused failures —
// cancelled contexts, out-of-range sizes or accuracies — never open the
// breaker: they say nothing about the solver.

// ErrPanicked marks a solve that panicked inside the solver and was
// recovered at the Service boundary. Match with errors.Is; the concrete
// *PanicError carries the panic value and stack.
var ErrPanicked = errors.New("pbmg: solve panicked")

// ErrBreakerOpen marks a request shed because the family's circuit breaker
// is open after consecutive solver failures. Match with errors.Is; the
// concrete *BreakerOpenError carries the suggested retry delay. Breaker
// sheds also match ErrShed, so generic shed handling (HTTP 429/503 mapping,
// load-generator retry accounting) keeps working unchanged.
var ErrBreakerOpen = errors.New("pbmg: circuit breaker open")

// PanicError is the error a recovered solve panic becomes. The daemon
// survives — the panic is converted at the Service boundary, after the
// solver's unwind has returned all pooled scratch — and the request fails
// with this error (HTTP 500 in the serve layer).
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the stack of the panicking goroutine (the worker's stack when
	// the panic crossed the scheduler as a sched.TaskPanic).
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("pbmg: solve panicked: %v", e.Value) }

// Is reports ErrPanicked, so errors.Is(err, ErrPanicked) matches without
// the caller needing the concrete type.
func (e *PanicError) Is(target error) bool { return target == ErrPanicked }

// BreakerOpenError is the error an open circuit breaker sheds with.
type BreakerOpenError struct {
	// RetryAfter is how long until the breaker will admit a probe — the
	// value the serve layer puts in the Retry-After header.
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("pbmg: circuit breaker open, retry in %v", e.RetryAfter)
}

// Is reports ErrBreakerOpen.
func (e *BreakerOpenError) Is(target error) bool { return target == ErrBreakerOpen }

// Breaker defaults: open after 5 consecutive infrastructure failures, probe
// again after 5 seconds.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
)

// BreakerConfig tunes a service's circuit breaker. The zero value selects
// the defaults.
type BreakerConfig struct {
	// Threshold is the consecutive infrastructure-failure count that opens
	// the breaker (≤ 0: DefaultBreakerThreshold).
	Threshold int
	// Cooldown is how long an open breaker sheds before admitting a single
	// half-open probe (≤ 0: DefaultBreakerCooldown).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	return c
}

// breakerOutcome classifies a finished solve for the breaker's accounting.
type breakerOutcome int

const (
	// breakerOK: the solve succeeded, or failed for a client-side reason
	// (bad size, unreachable accuracy) that says nothing about the solver.
	breakerOK breakerOutcome = iota
	// breakerInfraFailure: the solver itself failed — diverged or panicked.
	breakerInfraFailure
	// breakerNeutral: the solve never ran or was cancelled by the client;
	// no evidence either way.
	breakerNeutral
)

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker: closed (normal
// admission, counting consecutive infrastructure failures), open (shedding
// until the cooldown elapses), half-open (exactly one probe in flight;
// success closes, failure re-opens). It is plain state inside a family's
// admission record (admission.go): every method runs under the admitter's
// mutex and takes the admitter's clock, read only off the closed fast path.
type breaker struct {
	cfg         BreakerConfig
	state       int
	consecutive int
	openedAt    time.Time
	probing     bool
}

// allow decides whether an arriving request may proceed. probe is true when
// this request is the half-open probe (its outcome decides the breaker's
// fate); open means shed it, with retryAfter as the hint.
func (b *breaker) allow(now func() time.Time) (probe bool, retryAfter time.Duration, open bool) {
	if b.state == breakerClosed {
		return false, 0, false
	}
	if b.state == breakerOpen {
		if wait := b.cfg.Cooldown - now().Sub(b.openedAt); wait > 0 {
			return false, wait, true
		}
		b.state = breakerHalfOpen // cooldown elapsed: the next request probes
	}
	if b.probing {
		// One probe at a time — including one still outstanding from before a
		// straggler's failure re-opened the breaker; everyone else keeps
		// shedding until it reports back.
		return false, b.cfg.Cooldown, true
	}
	b.probing = true
	return true, 0, false
}

// record feeds a finished request's outcome back (probe is the value allow
// returned for it) and reports whether the breaker opened.
func (b *breaker) record(now func() time.Time, probe bool, outcome breakerOutcome) (opened bool) {
	if probe {
		// Whatever the outcome — a cancelled probe included — the probe slot
		// is free again, so the next request probes instead.
		b.probing = false
	}
	switch outcome {
	case breakerOK:
		b.consecutive = 0
		if b.state == breakerHalfOpen && probe {
			b.state = breakerClosed
		}
	case breakerInfraFailure:
		b.consecutive++
		if b.state == breakerHalfOpen || (b.state == breakerClosed && b.consecutive >= b.cfg.Threshold) {
			b.state = breakerOpen
			b.openedAt = now()
			return true
		}
	}
	return false
}

// stateName reports the state for metrics and readiness: "closed", "open",
// or "half-open". An open breaker whose cooldown has elapsed reports
// half-open — the next request will probe — so readiness stops flapping on
// an idle family that merely has nobody retrying yet.
func (b *breaker) stateName(now func() time.Time) string {
	switch {
	case b.state == breakerClosed:
		return "closed"
	case b.state == breakerOpen && now().Sub(b.openedAt) < b.cfg.Cooldown:
		return "open"
	default:
		return "half-open"
	}
}
