package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pbmg"
	"pbmg/internal/faultinject"
)

// A catalog is one immutable generation of the serving state: a registry
// loaded from the tuned-table directory plus one admission gate per served
// family. Hot-reload builds a complete new catalog off to the side and
// swaps a pointer, so requests always see a registry and its gates from
// the SAME generation; the old catalog is retired (drained, then closed)
// in the background once its last in-flight request releases it.
type catalog struct {
	reg   *pbmg.Registry
	gates map[pbmg.ServeKey]*gate
	order []pbmg.ServeKey
	dir   string
	// maxBody caps a /v1/solve body at the text of the largest grid this
	// generation serves (see maxSolveBody); /v1/batch gets batchBodyFactor
	// times it.
	maxBody int64

	// refs counts requests currently using this catalog. A catalog is
	// acquired under the server's catalog lock, so once a swap has
	// published its successor no new reference can appear and refs only
	// drains.
	refs atomic.Int64
}

func (c *catalog) acquire() { c.refs.Add(1) }
func (c *catalog) release() { c.refs.Add(-1) }

// retire blocks until every in-flight request has released the catalog,
// then frees its registry (worker pool). Called on a background goroutine
// after a reload swap, and synchronously by Close/drain.
func (c *catalog) retire() {
	for c.refs.Load() != 0 {
		time.Sleep(2 * time.Millisecond)
	}
	c.reg.Close()
}

// errQueueFull sheds a request because its family's bounded admission
// queue is already full — the explicit load-shedding signal (HTTP 429).
var errQueueFull = errors.New("serve: family admission queue is full")

// errAdmissionDeadline sheds a request whose deadline expired while it was
// queued behind its family quota (HTTP 503).
var errAdmissionDeadline = errors.New("serve: deadline expired in admission queue")

// gate is one family's admission control: at most quota solves of the
// family run concurrently, at most queueDepth more wait, and anything
// beyond that is shed immediately. Tickets bound queue+running occupancy
// (cap quota+queueDepth), slots bound running solves (cap quota); a
// request holds a ticket from admission to completion and a slot while
// solving. With quotas on every family, a burst of one family can occupy
// at most its own slots, so it cannot starve the others — the per-family
// subdivision of the registry's single global limit.
type gate struct {
	svc        *pbmg.Service
	quota      int
	queueDepth int
	slots      chan struct{} // nil when quota == 0 (global limit only)
	tickets    chan struct{}

	shedQueueFull atomic.Int64
	shedDeadline  atomic.Int64
}

func newGate(svc *pbmg.Service, quota, queueDepth int) *gate {
	g := &gate{svc: svc, quota: quota, queueDepth: queueDepth}
	if quota > 0 {
		g.slots = make(chan struct{}, quota)
		g.tickets = make(chan struct{}, quota+queueDepth)
	}
	return g
}

// admit passes the family gate: it returns a release func to defer once
// the solve is done, or the shed error. The context bounds only the wait
// for a slot; an admitted request is never revoked.
func (g *gate) admit(ctx context.Context) (release func(), err error) {
	if g.slots == nil {
		return func() {}, nil
	}
	select {
	case g.tickets <- struct{}{}:
	default:
		g.shedQueueFull.Add(1)
		return nil, errQueueFull
	}
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots; <-g.tickets }, nil
	case <-ctx.Done():
		<-g.tickets
		g.shedDeadline.Add(1)
		return nil, fmt.Errorf("%w: %v", errAdmissionDeadline, ctx.Err())
	}
}

// admitSlot acquires one solve slot while already holding queue occupancy
// (the batch path: one ticket admits the batch, its problems then share
// the family's slots).
func (g *gate) admitSlot(ctx context.Context) (release func(), err error) {
	if g.slots == nil {
		return func() {}, nil
	}
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots }, nil
	case <-ctx.Done():
		g.shedDeadline.Add(1)
		return nil, fmt.Errorf("%w: %v", errAdmissionDeadline, ctx.Err())
	}
}

// admitTicket acquires only queue occupancy (the batch path's single
// ticket).
func (g *gate) admitTicket() (release func(), err error) {
	if g.tickets == nil {
		return func() {}, nil
	}
	select {
	case g.tickets <- struct{}{}:
		return func() { <-g.tickets }, nil
	default:
		g.shedQueueFull.Add(1)
		return nil, errQueueFull
	}
}

// queueLen is the gauge of requests holding a ticket but no slot yet.
func (g *gate) queueLen() int {
	if g.tickets == nil {
		return 0
	}
	if n := len(g.tickets) - len(g.slots); n > 0 {
		return n
	}
	return 0
}

// ParseQuotaSpec parses the CLI syntax for per-family quotas: a
// comma-separated list of family[:eps]=N items keyed the way the catalog
// spells its families, e.g. "poisson=6,poisson3d=2" or "aniso:0.01=4".
func ParseQuotaSpec(spec string) (map[string]int, error) {
	out := make(map[string]int)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, nStr, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("serve: quota %q is not family=N", item)
		}
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("serve: quota %q needs a positive count", item)
		}
		out[strings.TrimSpace(name)] = n
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: quota list %q names no families", spec)
	}
	return out, nil
}

// buildCatalog loads the tuned-table directory into a fresh registry and
// wires one admission gate per family. It is all-or-nothing like
// core.LoadDir underneath: any bad file, unknown quota key, or empty
// directory fails the build and the caller keeps serving its current
// catalog.
func buildCatalog(cfg Config) (*catalog, error) {
	if faultinject.Enabled {
		// Chaos coverage for the reload path: an injected error here must
		// leave the live catalog serving untouched, like any bad config dir.
		if err := faultinject.PointErr("serve.reload"); err != nil {
			return nil, err
		}
	}
	// When every served family will carry a positive quota the global
	// registry limit is set to the quota sum, so the per-family gates are
	// the binding constraint and the global semaphore never re-introduces
	// cross-family starvation. Families without a quota fall back to the
	// configured global limit.
	reg := pbmg.NewRegistry(pbmg.RegistryOptions{
		Workers:     cfg.Workers,
		MaxInFlight: cfg.globalLimit(),
		Breaker:     cfg.Breaker,
	})
	services, err := reg.LoadDir(cfg.Dir)
	if err != nil {
		reg.Close()
		return nil, err
	}
	c := &catalog{reg: reg, gates: make(map[pbmg.ServeKey]*gate, len(services)), dir: cfg.Dir}
	seen := make(map[string]bool, len(cfg.Quotas))
	maxPoints := 0
	for _, svc := range services {
		maxPoints = max(maxPoints, gridPoints(svc.Solver().MaxSize(), svc.Solver().Dim()))
		key := svc.Key()
		quota, named := cfg.Quotas[key.String()]
		if named {
			seen[key.String()] = true
		} else {
			quota = cfg.DefaultQuota
		}
		queueDepth := cfg.QueueDepth
		if queueDepth <= 0 {
			queueDepth = defaultQueueFactor * quota
		}
		c.gates[key] = newGate(svc, quota, queueDepth)
		c.order = append(c.order, key)
	}
	for name := range cfg.Quotas {
		if !seen[name] {
			reg.Close()
			keys := make([]string, 0, len(c.order))
			for _, k := range c.order {
				keys = append(keys, k.String())
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("serve: quota names family %s, but %s serves only: %s",
				name, cfg.Dir, strings.Join(keys, ", "))
		}
	}
	c.maxBody = maxSolveBody(maxPoints)
	return c, nil
}

// globalLimit resolves the registry-wide admission limit for a catalog
// built under this configuration (see buildCatalog).
func (cfg Config) globalLimit() int {
	if len(cfg.Quotas) == 0 && cfg.DefaultQuota <= 0 {
		return cfg.MaxInFlight
	}
	sum := 0
	for _, q := range cfg.Quotas {
		sum += q
	}
	if cfg.DefaultQuota > 0 {
		// Families beyond the named ones get the default quota; the exact
		// set is only known after LoadDir, so leave generous headroom by
		// assuming up to maxDefaultQuotaFamilies of them.
		sum += cfg.DefaultQuota * maxDefaultQuotaFamilies
	}
	if cfg.MaxInFlight > sum {
		return cfg.MaxInFlight
	}
	return sum
}

// defaultQueueFactor sizes a family's bounded wait queue when the
// configuration does not pin one: quota×4 keeps the p99 wait proportional
// to the family's own service time while still absorbing bursts.
const defaultQueueFactor = 4

// maxDefaultQuotaFamilies is the headroom buildCatalog assumes when
// sizing the global limit under a DefaultQuota (the catalog size is not
// known until LoadDir returns).
const maxDefaultQuotaFamilies = 16
