package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pbmg"
)

// TestServeReloadAfterClose: a closed server refuses Reload with an error,
// frees the catalog the reload built and starts no goroutine; every
// endpoint answers as /metrics does, 503 "server is closed", and
// POST /-/reload 409.
func TestServeReloadAfterClose(t *testing.T) {
	srv, err := New(Config{Dir: tablesDir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	closeServer(t, srv)

	before := runtime.NumGoroutine()
	if v, err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "server is closed") || v != 0 {
		t.Fatalf("Reload after Close = %d, %v; want 0 and an error naming the closed server", v, err)
	}
	// The catalog the reload built was freed: its pool's workers have
	// returned (the last of them may still be on its way out).
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("Reload after Close left %d goroutines running, %d before it", n, before)
	}

	p := newProblem(t, pbmg.FamilyPoisson, 9, 1)
	solveBody, _ := json.Marshal(SolveRequest{Family: "poisson", N: 9, Accuracy: 1e3, B: p.B.Data()})
	for _, tc := range []struct {
		method, path string
		body         []byte
		code         int
	}{
		{http.MethodGet, "/metrics", nil, http.StatusServiceUnavailable},
		{http.MethodGet, "/healthz", nil, http.StatusServiceUnavailable},
		{http.MethodPost, "/v1/solve", solveBody, http.StatusServiceUnavailable},
		{http.MethodPost, "/-/reload", nil, http.StatusConflict},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body)))
		if rec.Code != tc.code || !strings.Contains(rec.Body.String(), "server is closed") {
			t.Errorf("%s %s after Close = %d %s; want %d naming the closed server", tc.method, tc.path, rec.Code, rec.Body, tc.code)
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after Close = %d, want 503", rec.Code)
	}
}

// TestDrainDeadlineBoundsShutdown: a request queued behind a held slot with
// a 3 s deadline does not hold up the shutdown. BeginDrain, Drain under a
// 100 ms deadline (whose error names the request still in flight) and Close
// return within 1 s; the request then finishes on the catalog Close let go,
// and its release frees that catalog.
func TestDrainDeadlineBoundsShutdown(t *testing.T) {
	srv, cl := startServer(t, Config{Quotas: map[string]int{"poisson": 1, "poisson3d": 1}})
	svc := familyService(t, srv, "poisson")
	releaseSlot := occupy(t, svc, 1)
	p := newProblem(t, pbmg.FamilyPoisson, 9, 5)
	body, err := json.Marshal(SolveRequest{Family: "poisson", N: 9, Accuracy: 1e3, B: p.B.Data(), DeadlineMs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.SolveBytes(context.Background(), body)
		done <- err
	}()
	waitQueued(t, svc, 1)
	gen := current(srv)

	t0 := time.Now()
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	err = srv.Drain(ctx)
	cancel()
	srv.Close()
	if took := time.Since(t0); took > time.Second {
		t.Errorf("BeginDrain, Drain(100ms) and Close took %v, want under 1s", took)
	}
	if err == nil || !strings.Contains(err.Error(), "1 requests still in flight") {
		t.Errorf("Drain past its deadline = %v, want an error naming 1 request in flight", err)
	}

	releaseSlot()
	if err := <-done; err != nil {
		t.Errorf("the request in flight at Close: %v", err)
	}
	waitClosed(t, gen)
}

var lifecycleSeed = flag.Int64("lifecycle.seed", 0, "run TestServeLifecycleInterleavings with this seed only (replay a failure)")

// TestServeLifecycleInterleavings drives servers through seeded mixes of
// solves, reloads (some of a directory a broken file spoils), BeginDrain,
// Drain and Close, with solves in flight across all of them. The seed fixes
// the sequence of operations; how the solves in flight interleave with them
// is the runtime's. Replay a failure with
// go test -run TestServeLifecycleInterleavings -lifecycle.seed=N ./serve.
// Every solve is answered 200, 429 + Retry-After, or 503 with Retry-After
// or naming the closed server; a refused reload leaves the version where it
// was; and once the last Drain and Close are done, the last release of every
// generation has closed it exactly once. Besides the fixed seeds, one run
// per invocation takes its seed from the clock under the stable name
// seed=clock and logs the seed it drew.
func TestServeLifecycleInterleavings(t *testing.T) {
	if *lifecycleSeed != 0 {
		seed := *lifecycleSeed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runLifecycle(t, seed) })
		return
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runLifecycle(t, seed) })
	}
	t.Run("seed=clock", func(t *testing.T) {
		seed := time.Now().UnixNano()
		t.Logf("seed %d (replay with -lifecycle.seed=%d)", seed, seed)
		runLifecycle(t, seed)
	})
}

// runLifecycle runs four server lives of 60 steps each. BeginDrain, Drain
// and Close each come once per life, at steps the seed draws; every other
// step starts a solve, reloads, or waits for the solves in flight.
func runLifecycle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := copyTables(t)
	broken := filepath.Join(dir, "zbroken.json")
	p := newProblem(t, pbmg.FamilyPoisson, 17, seed)
	var bodies [][]byte
	for _, deadlineMs := range []int64{0, 1, 50} {
		body, err := json.Marshal(SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data(), DeadlineMs: deadlineMs})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}

	const steps = 60
	for life := range 4 {
		os.Remove(broken) // a life starts from a good directory
		srv, err := New(Config{Dir: dir, Workers: 2, Quotas: map[string]int{"poisson": 1}, QueueDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		gens := []*catalog{current(srv)}
		version, closed := int64(1), false
		beginAt, drainAt, closeAt := rng.Intn(steps), rng.Intn(steps), rng.Intn(steps)
		var wg sync.WaitGroup
		inFlight := make(chan struct{}, 8)
		for step := range steps {
			where := fmt.Sprintf("seed %d, life %d, step %d", seed, life, step)
			if step == beginAt {
				srv.BeginDrain()
			}
			if step == drainAt {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(20))*time.Millisecond)
				if err := srv.Drain(ctx); err != nil && !strings.Contains(err.Error(), "still in flight") {
					t.Errorf("%s: Drain = %v", where, err)
				}
				cancel()
			}
			if step == closeAt {
				srv.Close()
				closed = true
			}
			switch op := rng.Intn(10); {
			case op < 6:
				body := bodies[rng.Intn(len(bodies))]
				inFlight <- struct{}{}
				wg.Add(1)
				go func() {
					defer func() { <-inFlight; wg.Done() }()
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
					if msg := undocumented(rec); msg != "" {
						t.Errorf("%s: solve %s", where, msg)
					}
				}()
			case op < 9:
				spoil := rng.Intn(3) == 0
				if spoil {
					err = os.WriteFile(broken, []byte("{"), 0o644)
				} else {
					err = os.Remove(broken)
				}
				if err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
				v, err := srv.Reload()
				switch {
				case closed:
					if err == nil || !strings.Contains(err.Error(), "server is closed") {
						t.Errorf("%s: Reload after Close = %d, %v", where, v, err)
					}
				case spoil:
					if err == nil || v != version || current(srv).version != version {
						t.Errorf("%s: refused reload = %d, %v; serving version %d, want %d", where, v, err, current(srv).version, version)
					}
				case err != nil || v != version+1:
					t.Errorf("%s: Reload = %d, %v; want version %d", where, v, err, version+1)
				default:
					version = v
					gens = append(gens, current(srv))
				}
			default:
				wg.Wait()
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("seed %d, life %d: final Drain: %v", seed, life, err)
		}
		cancel()
		wg.Wait()
		srv.Close()
		waitClosed(t, gens...)
		if t.Failed() {
			return // a leak fails every later life the same way
		}
		for _, c := range gens {
			if n := c.refs.Load(); n != 0 {
				t.Errorf("seed %d, life %d: catalog version %d closed at %d references, want 0", seed, life, c.version, n)
			}
		}
	}
}

// undocumented describes a solve answer the serve contract does not allow,
// "" for a 200, a 429 or 503 shed (each with Retry-After), and the 503 of a
// closed server.
func undocumented(rec *httptest.ResponseRecorder) string {
	switch retry := rec.Header().Get("Retry-After") != ""; {
	case rec.Code == http.StatusOK:
	case rec.Code == http.StatusTooManyRequests && retry:
	case rec.Code == http.StatusServiceUnavailable && (retry || strings.Contains(rec.Body.String(), "server is closed")):
	default:
		return fmt.Sprintf("answered %d %s", rec.Code, rec.Body)
	}
	return ""
}
