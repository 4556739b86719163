package pbmg

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// holdSlot occupies one running slot of the service through the admission
// state machine's own admit — how tests saturate capacity without a solve.
// The returned func releases it (as a completed request).
func holdSlot(t *testing.T, sv *Service) (release func()) {
	t.Helper()
	s, err := sv.fam.admit(context.Background(), false)
	if err != nil {
		t.Fatalf("holding a slot: %v", err)
	}
	return func() { s.done(nil) }
}

// queueRequest parks one request in the family's queue (the family must be
// saturated) and returns once it is visibly queued. The returned channel
// yields its admit result; cancel sheds it.
func queueRequest(t *testing.T, f *admitFamily) (result <-chan error, cancel context.CancelFunc) {
	t.Helper()
	before := f.metrics().QueueLen
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		s, err := f.admit(ctx, false)
		if err == nil {
			s.done(nil)
		}
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); f.metrics().QueueLen == before; {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the admission queue")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return done, cancel
}

// TestAdmissionQuotaIsolation is the starvation property checked where it
// is implemented (TestServeQuotaIsolation checks it through HTTP): family A
// saturated in slots AND queue cannot keep family B from being admitted at
// once, further A arrivals shed queue-full, and the effective global cap is
// the quota sum, not the smaller configured cap.
func TestAdmissionQuotaIsolation(t *testing.T) {
	a := newAdmitter(2, BreakerConfig{}) // deliberately below the quota sum
	fa, fb := a.family(2, 3), a.family(2, 3)
	if got := a.globalCap(); got != 4 {
		t.Fatalf("effective global cap = %d, want the quota sum 4", got)
	}
	ctx := context.Background()
	var held []slot
	for range fa.quota {
		s, err := fa.admit(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	var queued []<-chan error
	for range fa.queueDepth {
		done, cancel := queueRequest(t, fa)
		defer cancel()
		queued = append(queued, done)
	}

	// B is admitted immediately despite the saturated A...
	for range fb.quota {
		s, err := fb.admit(ctx, false)
		if err != nil {
			t.Fatalf("family B starved behind family A's burst: %v", err)
		}
		held = append(held, s)
	}
	// ...and further A arrivals shed at A's own queue.
	if _, err := fa.admit(ctx, false); !errors.Is(err, ErrQueueFull) || !errors.Is(err, ErrShed) {
		t.Fatalf("A arrival at a full queue: err = %v, want ErrShed wrapping ErrQueueFull", err)
	}
	ma, mb := fa.metrics(), fb.metrics()
	if ma.InFlight != 2 || ma.QueueLen != 3 || ma.ShedQueueFull != 1 || ma.Shed != 1 {
		t.Errorf("family A = %+v, want 2 running, 3 queued, 1 queue-full shed", ma)
	}
	if mb.InFlight != 2 || mb.QueueLen != 0 || mb.Shed != 0 {
		t.Errorf("family B = %+v, want 2 running, nothing queued or shed", mb)
	}

	// Releasing everything drains A's queue in order and leaves it idle.
	for _, s := range held {
		s.done(nil)
	}
	for _, done := range queued {
		if err := <-done; err != nil {
			t.Errorf("queued A request: %v", err)
		}
	}
	if ma := fa.metrics(); ma.InFlight != 0 || ma.QueueLen != 0 || ma.Completed != 5 {
		t.Errorf("family A after release = %+v, want idle with 5 completed", ma)
	}
}

// TestAdmissionBreakerBeforeQueue pins the shed order's one behaviour
// change: with every slot of a family held and its breaker open, the next
// request returns at once with ErrBreakerOpen and never enters the queue.
// (The HTTP layer used to queue it behind the family quota first, so under
// load a tripped family answered 429 / deadline-503 after the caller's whole
// deadline instead of the breaker's immediate 503 + Retry-After.)
func TestAdmissionBreakerBeforeQueue(t *testing.T) {
	a := newAdmitter(1, BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	f := a.family(1, 4)
	ctx := context.Background()
	first, err := f.admit(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	// A second request queues while the breaker is still closed; it will
	// inherit the family's only slot the moment the first one fails.
	second := make(chan slot, 1)
	go func() {
		s, err := f.admit(ctx, false)
		if err != nil {
			t.Errorf("queued request: %v", err)
		}
		second <- s
	}()
	for deadline := time.Now().Add(5 * time.Second); f.metrics().QueueLen == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	first.done(fmt.Errorf("%w: injected", ErrDiverged)) // threshold 1: trips the breaker
	held := <-second
	if m := f.metrics(); f.breakerState() != "open" || m.InFlight != 1 || m.QueueLen != 0 {
		t.Fatalf("set-up: breaker %q, %+v; want open with the only slot held", f.breakerState(), m)
	}

	tight, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = f.admit(tight, false)
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, ErrShed) {
		t.Fatalf("request to a tripped, saturated family: err = %v, want ErrShed wrapping ErrBreakerOpen", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("breaker shed took %v: the request waited in the queue first", waited)
	}
	m := f.metrics()
	if m.BreakerShed != 1 || m.Shed != 1 || m.QueueLen != 0 || m.ShedQueueFull != 0 || m.ShedDeadline != 0 {
		t.Errorf("metrics = %+v, want exactly one breaker shed and a queue never entered", m)
	}
	held.done(nil)
}

// TestAdmissionQueueLenBehindBatch is the honest-gauge regression: a batch
// holding its one queue place and every running slot, with one single
// request queued behind it, reports QueueLen == 1. (The HTTP
// gate computed len(tickets) − len(slots) = 2 − 2 and reported 0.)
func TestAdmissionQueueLenBehindBatch(t *testing.T) {
	f := newAdmitter(1, BreakerConfig{}).family(2, 4)
	workers, err := f.enterBatch(8)
	if err != nil || workers != 2 {
		t.Fatalf("enterBatch(8) = %d, %v; want the quota, 2", workers, err)
	}
	var members []slot
	for range workers {
		s, err := f.admit(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, s)
	}
	done, cancel := queueRequest(t, f)
	defer cancel()
	if m := f.metrics(); m.QueueLen != 1 || m.InFlight != 2 {
		t.Errorf("metrics = %+v, want QueueLen 1, InFlight 2", m)
	}
	for _, s := range members {
		s.done(nil)
	}
	f.leaveBatch()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

var admissionSeed = flag.Int64("admission.seed", 0, "run TestAdmissionInterleavings with this seed only (replay a failure)")

// TestAdmissionInterleavings drives the admission state machine alone — no
// solver: fake work that succeeds, fails as diverged / panicked / cancelled
// / a client error, or is cancelled while queued — through seeded random
// interleavings over three families with mixed quotas (one quota-less) and a
// small global cap, checking the conservation invariants after every step.
// The driver is one goroutine and lets every step settle (each blocked
// request is parked in a queue) before the next, so a seed replays exactly:
// go test -run TestAdmissionInterleavings -admission.seed=N .
// Besides the fixed seeds, one run per invocation takes its seed from the
// clock under the stable name seed=clock and logs the seed it drew.
func TestAdmissionInterleavings(t *testing.T) {
	if *admissionSeed != 0 {
		seed := *admissionSeed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { newAdmissionSim(t, seed).run(3000) })
		return
	}
	for _, seed := range []int64{1, 2, 3, 1792090513815234650} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { newAdmissionSim(t, seed).run(3000) })
	}
	t.Run("seed=clock", func(t *testing.T) {
		seed := time.Now().UnixNano()
		t.Logf("seed %d (replay with -admission.seed=%d)", seed, seed)
		newAdmissionSim(t, seed).run(3000)
	})
}

// simReq is one simulated request.
type simReq struct {
	fam    int
	member bool
	probe  bool // the model expects it to be its family's half-open probe
	cancel context.CancelFunc
	slot   slot
}

type simResult struct {
	r   *simReq
	s   slot
	err error
}

// admissionSim is the driver plus an independent model of what the state
// machine must hold: per-family arrival-ordered queues, running sets, batch
// places, consecutive-failure counts and outstanding probes.
type admissionSim struct {
	t       *testing.T
	rng     *rand.Rand
	a       *admitter
	fams    []*admitFamily
	clock   time.Time
	results chan simResult
	pending int // requests whose admit has not returned to the driver

	queued, running [][]*simReq
	batches         []int
	arrivals        []int64
	releases        []int64
	consecutive     []int
	probeOut        []bool
	step            int
}

const (
	simThreshold = 2
	simCooldown  = time.Second
)

func newAdmissionSim(t *testing.T, seed int64) *admissionSim {
	sim := &admissionSim{
		t: t, rng: rand.New(rand.NewSource(seed)),
		clock:   time.Unix(1_000_000, 0),
		results: make(chan simResult),
	}
	sim.a = newAdmitter(2, BreakerConfig{Threshold: simThreshold, Cooldown: simCooldown})
	sim.a.now = func() time.Time { return sim.clock } // read and written under a.mu
	// quota 2 / depth 2, quota 1 / default depth (4), and a quota-less family
	// competing for the effective cap max(2, 2+1+0) = 3.
	for _, q := range [][2]int{{2, 2}, {1, 0}, {0, 0}} {
		sim.fams = append(sim.fams, sim.a.family(q[0], q[1]))
	}
	n := len(sim.fams)
	sim.queued, sim.running = make([][]*simReq, n), make([][]*simReq, n)
	sim.batches, sim.consecutive, sim.probeOut = make([]int, n), make([]int, n), make([]bool, n)
	sim.arrivals, sim.releases = make([]int64, n), make([]int64, n)
	return sim
}

func (sim *admissionSim) failf(format string, args ...any) {
	sim.t.Helper()
	sim.t.Fatalf("step %d: %s", sim.step, fmt.Sprintf(format, args...))
}

func (sim *admissionSim) totalRunning() (n int) {
	for _, r := range sim.running {
		n += len(r)
	}
	return n
}

// settle first waits for the results of the must requests the driver has
// just cancelled in their queues (they still look parked until they wake),
// then until every request it has started is either back (its result
// handled) or parked in a queue.
func (sim *admissionSim) settle(must int) {
	for deadline := time.Now().Add(10 * time.Second); ; {
		parked := 0
		for _, f := range sim.fams {
			parked += int(f.metrics().QueueLen)
		}
		if must <= 0 && sim.pending == parked {
			return
		}
		select {
		case res := <-sim.results:
			sim.pending--
			must--
			sim.handle(res)
		default:
			if time.Now().After(deadline) {
				sim.failf("%d requests neither returned nor queued (%d queued)", sim.pending, parked)
			}
			runtime.Gosched()
		}
	}
}

// handle folds one returned admit into the model. A request that comes back
// after having been queued was either granted — then it must have been the
// oldest of its family (FIFO) — or shed by its cancelled context.
func (sim *admissionSim) handle(res simResult) {
	r, fi := res.r, res.r.fam
	at := -1
	for i, q := range sim.queued[fi] {
		if q == r {
			at = i
		}
	}
	if at >= 0 {
		if res.err == nil && at != 0 {
			sim.failf("family %d granted its queue position %d ahead of the head: FIFO broken", fi, at)
		}
		if res.err != nil && (!errors.Is(res.err, ErrShed) || !errors.Is(res.err, context.Canceled) ||
			errors.Is(res.err, ErrQueueFull) || errors.Is(res.err, ErrBreakerOpen)) {
			sim.failf("queued request left with %v, want a deadline-class shed", res.err)
		}
		sim.queued[fi] = append(sim.queued[fi][:at:at], sim.queued[fi][at+1:]...)
	}
	if res.err != nil {
		if r.probe {
			sim.probeOut[fi] = false
		}
		return
	}
	if res.s.probe != r.probe {
		sim.failf("family %d slot.probe = %v, model expects %v", fi, res.s.probe, r.probe)
	}
	r.slot = res.s
	sim.running[fi] = append(sim.running[fi], r)
}

// arrive starts one request and checks its fate against the shed order:
// expired → breaker → room → queue full → queued.
func (sim *admissionSim) arrive(fi int, member, expired bool) {
	f := sim.fams[fi]
	ctx, cancel := context.WithCancel(context.Background())
	if expired {
		cancel()
	}
	r := &simReq{fam: fi, member: member, cancel: cancel}
	state := f.breakerState()
	before := f.metrics()
	want := "queued"
	switch {
	case expired:
		want = "expired"
	case state == "open", state == "half-open" && sim.probeOut[fi]:
		want = "breaker"
	case len(sim.queued[fi]) == 0 && (f.quota == 0 || len(sim.running[fi]) < f.quota) && sim.totalRunning() < sim.a.globalCap():
		want = "granted"
	case !member && f.quota > 0 && len(sim.queued[fi])+sim.batches[fi] >= f.queueDepth:
		want = "queue-full"
	}
	if state == "half-open" && (want == "granted" || want == "queued") {
		r.probe, sim.probeOut[fi] = true, true
	}
	sim.arrivals[fi]++
	sim.pending++
	go func() {
		s, err := f.admit(ctx, member)
		sim.results <- simResult{r, s, err}
	}()
	sim.settle(0)

	after := f.metrics()
	got := "queued"
	switch {
	case after.Admitted == before.Admitted+1:
		got = "granted"
	case after.BreakerShed == before.BreakerShed+1:
		got = "breaker"
	case after.ShedQueueFull == before.ShedQueueFull+1:
		got = "queue-full"
	case after.Shed == before.Shed+1:
		got = "expired"
	}
	if got != want {
		sim.failf("family %d arrival (member %v, breaker %s): %s, want %s\nbefore %+v\nafter  %+v",
			fi, member, state, got, want, before, after)
	}
	if got == "queued" {
		sim.queued[fi] = append(sim.queued[fi], r)
	}
}

// finish releases a running request with the given outcome and checks the
// breaker moved only as that outcome allows.
func (sim *admissionSim) finish(fi, i int, err error) {
	f := sim.fams[fi]
	r := sim.running[fi][i]
	sim.running[fi] = append(sim.running[fi][:i:i], sim.running[fi][i+1:]...)
	before := f.breakerState()
	outcome := breakerOK
	switch {
	case errors.Is(err, ErrDiverged), errors.Is(err, ErrPanicked):
		outcome = breakerInfraFailure
		sim.consecutive[fi]++
	case errors.Is(err, ErrCancelled):
		outcome = breakerNeutral
	default:
		sim.consecutive[fi] = 0
	}
	r.slot.done(err)
	sim.releases[fi]++
	if r.probe {
		sim.probeOut[fi] = false
	}
	r.cancel()
	sim.settle(0)

	// Legal moves only: closed→open exactly on the threshold; half-open→closed
	// only by a healthy probe; half-open→open only by a failure. (A breaker
	// that reads half-open because its cooldown elapsed, but has not handed
	// out a probe yet, is still open underneath and ignores outcomes.)
	after := f.breakerState()
	legal := after == before
	switch {
	case before == "closed" && outcome == breakerInfraFailure && sim.consecutive[fi] >= simThreshold:
		legal = after == "open"
	case before == "half-open" && outcome == breakerInfraFailure:
		legal = legal || after == "open"
	case before == "half-open" && outcome == breakerOK && r.probe:
		legal = legal || after == "closed"
	}
	if !legal {
		sim.failf("family %d breaker %s → %s on outcome %v (probe %v, consecutive %d): illegal transition",
			fi, before, after, err, r.probe, sim.consecutive[fi])
	}
}

// check asserts the invariants against the state machine's own fields.
func (sim *admissionSim) check() {
	a := sim.a
	a.mu.Lock()
	defer a.mu.Unlock()
	sumRunning := 0
	for fi, f := range sim.fams {
		sumRunning += f.running
		if f.quota > 0 && f.running > f.quota {
			sim.failf("family %d running %d > quota %d", fi, f.running, f.quota)
		}
		if f.running != len(sim.running[fi]) || len(f.queue) != len(sim.queued[fi]) || f.batches != sim.batches[fi] {
			sim.failf("family %d holds running %d queued %d batches %d; model %d %d %d",
				fi, f.running, len(f.queue), f.batches, len(sim.running[fi]), len(sim.queued[fi]), sim.batches[fi])
		}
		singles := 0
		for _, r := range sim.queued[fi] {
			if !r.member {
				singles++
			}
		}
		if f.quota > 0 && singles+f.batches > f.queueDepth {
			sim.failf("family %d queue occupancy %d singles + %d batches > depth %d", fi, singles, f.batches, f.queueDepth)
		}
		m := f.m
		if got := m.Admitted + m.Shed + int64(len(f.queue)); got != sim.arrivals[fi] {
			sim.failf("family %d: %d arrivals ≠ admitted %d + shed %d + queued %d", fi, sim.arrivals[fi], m.Admitted, m.Shed, len(f.queue))
		}
		if m.Admitted != m.Completed+m.Failed+int64(f.running) {
			sim.failf("family %d: admitted %d ≠ completed %d + failed %d + running %d", fi, m.Admitted, m.Completed, m.Failed, f.running)
		}
		if m.Completed+m.Failed != sim.releases[fi] {
			sim.failf("family %d: %d slots released, counters say %d", fi, sim.releases[fi], m.Completed+m.Failed)
		}
		if m.Failed < m.Cancelled+m.Diverged+m.Panicked {
			sim.failf("family %d: failed %d < classes %d+%d+%d", fi, m.Failed, m.Cancelled, m.Diverged, m.Panicked)
		}
		if m.Shed < m.ShedQueueFull+m.ShedDeadline+m.BreakerShed {
			sim.failf("family %d: shed %d < classes %d+%d+%d", fi, m.Shed, m.ShedQueueFull, m.ShedDeadline, m.BreakerShed)
		}
		probes := 0
		for _, r := range sim.running[fi] {
			if r.slot.probe {
				probes++
			}
		}
		if probes > 1 {
			sim.failf("family %d has %d probes in flight", fi, probes)
		}
	}
	if sumRunning != a.running || a.running > a.limit {
		sim.failf("global: running %d (families sum %d) > cap %d", a.running, sumRunning, a.limit)
	}
}

func (sim *admissionSim) run(steps int) {
	outcomes := []error{
		nil, nil, nil, nil,
		errors.New("client error: size outside the tuned range"),
		fmt.Errorf("%w: injected", ErrDiverged),
		&PanicError{Value: "injected"},
		fmt.Errorf("%w: %w", ErrCancelled, context.Canceled),
	}
	for sim.step = 0; sim.step < steps; sim.step++ {
		fi := sim.rng.Intn(len(sim.fams))
		switch op := sim.rng.Intn(20); {
		case op < 8:
			sim.arrive(fi, false, false)
		case op < 9:
			sim.arrive(fi, false, true)
		case op < 14:
			if n := len(sim.running[fi]); n > 0 {
				sim.finish(fi, sim.rng.Intn(n), outcomes[sim.rng.Intn(len(outcomes))])
			}
		case op < 15:
			if n := len(sim.queued[fi]); n > 0 { // cancelled while queued
				sim.queued[fi][sim.rng.Intn(n)].cancel()
				sim.settle(1)
			}
		case op < 16:
			before := sim.fams[fi].metrics().ShedQueueFull
			sim.arrivals[fi]++
			if _, err := sim.fams[fi].enterBatch(3); err == nil {
				sim.arrivals[fi]-- // a place is not a request; only a shed batch counts as one
				sim.batches[fi]++
			} else if !errors.Is(err, ErrQueueFull) || sim.fams[fi].metrics().ShedQueueFull != before+1 {
				sim.failf("family %d batch refused with %v", fi, err)
			}
		case op < 18:
			if sim.batches[fi] > 0 {
				sim.arrive(fi, true, false)
			}
		case op < 19:
			members := 0
			for _, r := range append(sim.queued[fi], sim.running[fi]...) {
				if r.member {
					members++
				}
			}
			if sim.batches[fi] > 0 && members == 0 {
				sim.fams[fi].leaveBatch()
				sim.batches[fi]--
			}
		default:
			before := make([]string, len(sim.fams))
			for i, f := range sim.fams {
				before[i] = f.breakerState()
			}
			sim.a.mu.Lock()
			sim.clock = sim.clock.Add(time.Duration(sim.rng.Int63n(int64(3 * simCooldown / 2))))
			sim.a.mu.Unlock()
			for i, f := range sim.fams {
				// Time alone moves a breaker only open → half-open.
				if after := f.breakerState(); after != before[i] && !(before[i] == "open" && after == "half-open") {
					sim.failf("family %d breaker %s → %s by the clock alone", i, before[i], after)
				}
			}
		}
		sim.check()
	}
	// Quiesce: every queued request cancelled, every slot released once.
	for fi := range sim.fams {
		for _, r := range sim.queued[fi] {
			r.cancel()
		}
		sim.settle(len(sim.queued[fi]))
		for len(sim.running[fi]) > 0 {
			sim.finish(fi, 0, nil)
		}
	}
	sim.check()
	for fi, f := range sim.fams {
		if m := f.metrics(); m.InFlight != 0 || m.QueueLen != 0 || m.Admitted+m.Shed != sim.arrivals[fi] {
			sim.failf("family %d not quiescent: %+v (arrivals %d)", fi, m, sim.arrivals[fi])
		}
	}
}

// TestAdmissionFastPathAllocatesNothing: an uncontended admit/done pair is
// two mutex sections and no allocation (a waiter record is allocated only
// when a request actually queues).
func TestAdmissionFastPathAllocatesNothing(t *testing.T) {
	f := newAdmitter(2, BreakerConfig{}).family(2, 0)
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		s, err := f.admit(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		s.done(nil)
	}); n != 0 {
		t.Errorf("uncontended admit+done allocates %v times, want 0", n)
	}
}
