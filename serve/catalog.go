package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"pbmg"
	"pbmg/internal/faultinject"
)

// A catalog is one immutable generation of the serving state: a registry
// — tuned tables, admission state, worker pool — loaded from the tuned-table
// directory. Hot-reload builds a complete new catalog off to the side and
// swaps a pointer, so a request sees one generation from routing to
// release; the old catalog frees its registry (worker pool) on the release
// of its last reference.
type catalog struct {
	reg      *pbmg.Registry
	services []*pbmg.Service // registration (filename) order
	dir      string
	// maxBody caps a /v1/solve body at the text of the largest grid this
	// generation serves (see maxSolveBody); /v1/batch gets batchBodyFactor
	// times it.
	maxBody int64
	// version numbers the generation: 1 for the catalog New loads, one
	// more for each reload. Set before the catalog is published.
	version int64

	// refs counts the server's hold on the current catalog (the 1 it
	// starts with) plus the requests using it. A catalog is acquired under
	// the server's catalog lock, so once a swap has published its successor
	// and dropped the server's hold, no new reference can appear: the
	// release that reaches 0 is the last, and it closes the registry and
	// then closed.
	refs   atomic.Int64
	closed chan struct{}
}

func (c *catalog) acquire() { c.refs.Add(1) }

// release drops one reference and returns how many are left; the release
// that leaves none frees the registry.
func (c *catalog) release() int64 {
	n := c.refs.Add(-1)
	if n == 0 {
		c.reg.Close()
		close(c.closed)
	}
	return n
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
		name = strings.TrimSpace(name)
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("serve: quota list %q names %s twice", spec, name)
		}
		out[name] = n
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: quota list %q names no families", spec)
	}
	return out, nil
}

// buildCatalog loads the tuned-table directory into a fresh registry, which
// carries the admission configuration. It is all-or-nothing like
// core.LoadDir underneath: any bad file, unknown quota key, or empty
// directory fails the build and the caller keeps serving its current
// catalog. A built catalog holds one reference, its caller's.
func buildCatalog(cfg Config) (*catalog, error) {
	if faultinject.Enabled {
		// Chaos coverage for the reload path: an injected error here must
		// leave the live catalog serving untouched, like any bad config dir.
		if err := faultinject.PointErr("serve.reload"); err != nil {
			return nil, err
		}
	}
	reg := pbmg.NewRegistry(pbmg.RegistryOptions{
		Workers:      cfg.Workers,
		MaxInFlight:  cfg.MaxInFlight,
		Quotas:       cfg.Quotas,
		DefaultQuota: cfg.DefaultQuota,
		QueueDepth:   cfg.QueueDepth,
		Breaker:      cfg.Breaker,
	})
	services, err := reg.LoadDir(cfg.Dir)
	if err != nil {
		reg.Close()
		return nil, err
	}
	c := &catalog{reg: reg, services: services, dir: cfg.Dir, closed: make(chan struct{})}
	c.refs.Store(1)
	served := make(map[string]bool, len(services))
	maxPoints := 0
	for _, svc := range services {
		maxPoints = max(maxPoints, gridPoints(svc.Solver().MaxSize(), svc.Solver().Dim()))
		served[svc.Key().String()] = true
	}
	for name := range cfg.Quotas {
		if !served[name] {
			reg.Close()
			return nil, fmt.Errorf("serve: quota names family %s, but %s serves only: %v", name, cfg.Dir, reg.Keys())
		}
	}
	c.maxBody = maxSolveBody(maxPoints)
	return c, nil
}
