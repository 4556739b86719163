package pbmg

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pbmg/internal/core"
	"pbmg/internal/direct"
	"pbmg/internal/sched"
)

// This file is the multi-family serving layer: a Registry holds one tuned
// Solver per operator family and routes requests to it, so a single process
// serves several tuned configurations side by side — the paper's
// tune-once/serve-many model (§3.2.1) extended from one configuration to a
// catalog of them. Every family the registry serves shares one worker pool,
// one global admission limit, and one direct-factor cache, so adding
// a family adds tables, not threads.

// ServeKey identifies one tuned configuration in a Registry: the operator
// family, its resolved parameter (0 for the parameterless Laplacians), and
// the spatial dimension.
type ServeKey struct {
	Family  Family
	Epsilon float64
	Dim     int
}

// String renders the key the way the CLI flags spell it: "poisson",
// "aniso:0.01", "poisson3d".
func (k ServeKey) String() string {
	if FamilyHasParam(k.Family) {
		return fmt.Sprintf("%s:%g", k.Family, k.Epsilon)
	}
	return k.Family.String()
}

// Key returns the (family, ε, dim) registry key the service is served
// under.
func (sv *Service) Key() ServeKey { return serveKeyOf(sv.s) }

// serveKeyOf derives the registry key of a tuned solver.
func serveKeyOf(s *Solver) ServeKey {
	k := ServeKey{Family: s.Family(), Dim: s.Dim()}
	if FamilyHasParam(k.Family) {
		k.Epsilon = s.Epsilon()
	}
	return k
}

// RegistryOptions configures NewRegistry.
type RegistryOptions struct {
	// Workers sets the shared kernel worker pool for every served family
	// (≤ 1: serial).
	Workers int
	// MaxInFlight is the global cap on running solves (≤ 0: 2×GOMAXPROCS);
	// the effective cap is max(MaxInFlight, Σ quotas of the families actually
	// registered), so quotas stay the binding limit.
	MaxInFlight int
	// Quotas caps concurrent solves per family, keyed by ServeKey.String()
	// ("aniso:0.01"); families not named get DefaultQuota (0: the global cap
	// only, and an unbounded queue). QueueDepth bounds each capped family's
	// queue, beyond which arrivals shed ErrQueueFull (≤ 0: 4× its quota).
	Quotas       map[string]int
	DefaultQuota int
	QueueDepth   int
	// Breaker configures every registered family's circuit breaker (the
	// zero value selects the defaults; the breakers themselves are
	// per-family, so one family melting down never trips the others).
	Breaker BreakerConfig
}

// Registry serves several tuned operator families from one process. LoadDir
// is how families are registered: the registry builds and owns the solver of
// every configuration it loads, and gives each a Service routed by (family,
// ε). All of them share the registry's worker pool, its admitter
// (admission.go), and its direct-factor cache. A Registry is safe for
// concurrent use: any number of goroutines may Lookup and Solve while
// families are being loaded. Release with Close.
type Registry struct {
	pool  *sched.Pool
	cache *direct.Cache
	adm   *admitter
	opts  RegistryOptions

	unroutable atomic.Int64

	mu       sync.RWMutex
	services map[ServeKey]*Service
	order    []ServeKey // registration order, for stable listings
}

// NewRegistry returns an empty registry with the shared serving resources
// allocated.
func NewRegistry(o RegistryOptions) *Registry {
	return &Registry{
		pool:     newPool(o.Workers),
		cache:    &direct.Cache{},
		adm:      newAdmitter(o.MaxInFlight, o.Breaker),
		opts:     o,
		services: make(map[ServeKey]*Service),
	}
}

// MaxInFlight returns the effective global cap shared by every family.
func (r *Registry) MaxInFlight() int { return r.adm.globalCap() }

// LoadDir loads every .json tuned configuration in dir (one file per family,
// as written by mgtune) and registers them all, in filename order, on the
// registry's shared pool and factor cache. The load is all-or-nothing: any
// file that fails to load or collides with an already-registered family fails
// the whole call and registers NOTHING, so a serving process neither comes up
// quietly missing a family nor bricks the retry after the operator fixes the
// bad file.
func (r *Registry) LoadDir(dir string) ([]*Service, error) {
	configs, err := core.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	// Build every solver and vet every key before touching the registry.
	solvers := make([]*Solver, 0, len(configs))
	paths := make(map[ServeKey]string, len(configs))
	for _, cfg := range configs {
		s, err := newSolver(cfg.T, nil)
		if err != nil {
			return nil, fmt.Errorf("pbmg: configuration %s: %w", cfg.Path, err)
		}
		key := serveKeyOf(s)
		if prev, dup := paths[key]; dup {
			return nil, fmt.Errorf("pbmg: %s and %s both serve family %s", prev, cfg.Path, key)
		}
		paths[key] = cfg.Path
		solvers = append(solvers, s)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range solvers {
		key := serveKeyOf(s)
		if _, ok := r.services[key]; ok {
			return nil, fmt.Errorf("pbmg: registry already serves family %s (from %s)", key, paths[key])
		}
	}
	services := make([]*Service, 0, len(solvers))
	for _, s := range solvers {
		key := serveKeyOf(s)
		s.ws.Pool = r.pool
		s.ws.FactorCache = r.cache
		quota, named := r.opts.Quotas[key.String()]
		if !named {
			quota = r.opts.DefaultQuota
		}
		// Each family has its own breaker state inside the shared admitter:
		// one family melting down must not stop the others.
		svc := &Service{s: s, fam: r.adm.family(quota, r.opts.QueueDepth)}
		r.services[key] = svc
		r.order = append(r.order, key)
		services = append(services, svc)
	}
	return services, nil
}

// Keys returns the served (family, ε, dim) keys in registration order.
func (r *Registry) Keys() []ServeKey {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]ServeKey(nil), r.order...)
}

// Lookup routes a request to the service tuned for the family and parameter.
// For parameterized families, eps 0 selects the family default (the same
// resolution the tuner applies); for the parameterless Laplacians eps is
// ignored, mirroring Solver.CheckFamilyFlags. A miss counts toward the
// Unroutable metric and the error names what the registry does serve.
func (r *Registry) Lookup(f Family, eps float64) (*Service, error) {
	key := ServeKey{Family: f, Dim: f.Dim()}
	if FamilyHasParam(f) {
		key.Epsilon = core.ResolveEps(f, eps)
	}
	r.mu.RLock()
	svc, ok := r.services[key]
	r.mu.RUnlock()
	if ok {
		return svc, nil
	}
	r.unroutable.Add(1)
	return nil, r.routeError(key)
}

// routeError explains a routing miss: an eps mismatch within a served family
// points at the tuned parameters (like Solver.CheckFamilyFlags does for a
// single configuration), anything else lists the served catalog.
func (r *Registry) routeError(key ServeKey) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sameFamily []string
	for _, k := range r.order {
		if k.Family == key.Family {
			sameFamily = append(sameFamily, fmt.Sprintf("%g", k.Epsilon))
		}
	}
	if len(sameFamily) > 0 {
		return fmt.Errorf("pbmg: registry serves family %s at eps %s, not %g; re-tune with mgtune -family %s -epsilon %g",
			key.Family, strings.Join(sameFamily, ", "), key.Epsilon, key.Family, key.Epsilon)
	}
	served := make([]string, 0, len(r.order))
	for _, k := range r.order {
		served = append(served, k.String())
	}
	sort.Strings(served)
	if len(served) == 0 {
		return fmt.Errorf("pbmg: registry serves no families; request for %s rejected", key)
	}
	return fmt.Errorf("pbmg: registry does not serve family %s (serving: %s)",
		key, strings.Join(served, ", "))
}

// Solve routes one tuned FULL-MULTIGRID solve to the family's service,
// waiting while the family's quota or the registry-wide cap is exhausted.
// See Solver.Solve.
func (r *Registry) Solve(f Family, eps float64, x, b *Grid, accuracy float64) error {
	svc, err := r.Lookup(f, eps)
	if err != nil {
		return err
	}
	return svc.Solve(x, b, accuracy)
}

// FamilyMetrics is one family's counters in a registry snapshot, plus its
// circuit-breaker state ("closed", "open", "half-open").
type FamilyMetrics struct {
	Key ServeKey
	ServiceMetrics
	Breaker string
}

// RegistryMetrics is a point-in-time snapshot of the registry's request
// counters: per-family in registration order, their sum, and the requests
// that matched no served family (which never reach a service, so they are
// not part of the aggregate).
type RegistryMetrics struct {
	Families   []FamilyMetrics
	Aggregate  ServiceMetrics
	Unroutable int64
}

// Metrics snapshots every served family's counters.
func (r *Registry) Metrics() RegistryMetrics {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := RegistryMetrics{Unroutable: r.unroutable.Load()}
	for _, k := range r.order {
		svc := r.services[k]
		sm := svc.Metrics()
		m.Families = append(m.Families, FamilyMetrics{Key: k, ServiceMetrics: sm, Breaker: svc.BreakerState()})
		m.Aggregate.Add(sm)
	}
	return m
}

// Close releases the registry's shared worker pool, the one resource of the
// solvers it built. It must not be called while solves are in flight.
func (r *Registry) Close() { closePool(r.pool) }
