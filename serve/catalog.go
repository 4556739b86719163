package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pbmg"
	"pbmg/internal/faultinject"
)

// A catalog is one immutable generation of the serving state: a registry
// — tuned tables, admission state, worker pool — loaded from the tuned-table
// directory. Hot-reload builds a complete new catalog off to the side and
// swaps a pointer, so a request sees one generation from routing to
// release; the old catalog is retired (drained, then closed) in the
// background once its last in-flight request releases it.
type catalog struct {
	reg      *pbmg.Registry
	services []*pbmg.Service // registration (filename) order
	dir      string
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
// catalog.
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
	c := &catalog{reg: reg, services: services, dir: cfg.Dir}
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
