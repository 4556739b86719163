package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbmg"
)

// tablesDir holds one tuned table per family (poisson N≤17, poisson3d
// N≤9), built once in TestMain and shared read-only by every test:
// catalog builds are cheap, tuning is not.
var tablesDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "serve-test-tables-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, tc := range []struct {
		family pbmg.Family
		size   int
	}{
		{pbmg.FamilyPoisson, 17},
		{pbmg.FamilyPoisson3D, 9},
	} {
		s, err := pbmg.Tune(pbmg.Options{
			MaxSize: tc.size, Family: tc.family,
			Machine: "intel-harpertown", Seed: 5,
		})
		if err == nil {
			err = s.Save(filepath.Join(dir, fmt.Sprintf("%02d-%s.json", i, tc.family)))
			s.Close()
		}
		if err != nil {
			os.RemoveAll(dir)
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	tablesDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// startServer builds a Server over tablesDir (unless cfg.Dir is set) and
// exposes it through a real HTTP listener.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = tablesDir
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, &Client{BaseURL: hs.URL}
}

// familyService digs out one family's service, whose admission state the
// tests below saturate deterministically.
func familyService(t *testing.T, s *Server, family string) *pbmg.Service {
	t.Helper()
	c := s.acquireCatalog()
	defer c.release()
	svc, err := c.route(family, 0)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// occupy takes n places of the family's capacity through the admission
// state machine itself: each is a request (pbmg.Service.Do) whose work
// blocks until release. While the family has free slots they become running
// requests; once it is saturated they park in its queue. occupy returns
// when all n are where they will stay (running or queued); release lets
// them finish and waits for them.
func occupy(t *testing.T, svc *pbmg.Service, n int) (release func()) {
	t.Helper()
	before := svc.Metrics()
	free := make(chan struct{})
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := svc.Do(context.Background(), func() error { <-free; return nil }); err != nil {
				t.Errorf("occupying %s: %v", svc.Key(), err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := svc.Metrics()
		if (m.InFlight-before.InFlight)+(m.QueueLen-before.QueueLen) == int64(n) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("occupying %d places of %s: stuck at %+v", n, svc.Key(), m)
		}
		time.Sleep(time.Millisecond)
	}
	return func() { close(free); wg.Wait() }
}

// copyTables returns a private copy of tablesDir, for tests that break and
// fix table files.
func copyTables(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(tablesDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(tablesDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// newProblem draws one family problem with its reference solution
// attached, so tests can grade served answers.
func newProblem(t *testing.T, f pbmg.Family, n int, seed int64) *pbmg.Problem {
	t.Helper()
	p, err := pbmg.NewFamilyProblem(n, pbmg.Unbiased, seed, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	pbmg.Reference(p)
	return p
}

// overlargeDeadlineMs is the smallest DeadlineMs whose product with
// time.Millisecond overflows a time.Duration.
const overlargeDeadlineMs = math.MaxInt64/int64(time.Millisecond) + 1

// TestServeSolveRoundTrip: a solve posted over the wire comes back at the
// requested accuracy, and the error paths answer with the right status
// codes — none of them classified as load-shedding.
func TestServeSolveRoundTrip(t *testing.T) {
	_, cl := startServer(t, Config{})
	ctx := context.Background()

	p := newProblem(t, pbmg.FamilyPoisson, 17, 42)
	resp, err := cl.Solve(ctx, SolveRequest{
		Family: "poisson", N: 17, Accuracy: 1e3,
		B: p.B.Data(), X: p.NewState().Data(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Family != "poisson" || resp.N != 17 || resp.SolveNs <= 0 {
		t.Errorf("response header = %+v", resp)
	}
	x := pbmg.NewGrid(17)
	copy(x.Data(), resp.X)
	if got := p.AccuracyOf(x); got < 1e3 {
		t.Errorf("served solution accuracy %.3g, want ≥ 1e3", got)
	}

	for _, tc := range []struct {
		name string
		req  SolveRequest
		code int
	}{
		{"unknown family",
			SolveRequest{Family: "helmholtz", N: 17, Accuracy: 1e3, B: make([]float64, 289)},
			http.StatusNotFound},
		{"unserved family",
			SolveRequest{Family: "varcoef", N: 17, Accuracy: 1e3, B: make([]float64, 289)},
			http.StatusNotFound},
		{"n beyond the tuned range",
			SolveRequest{Family: "poisson", N: 33, Accuracy: 1e3, B: make([]float64, 33*33)},
			http.StatusBadRequest},
		{"short b",
			SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: make([]float64, 10)},
			http.StatusBadRequest},
		{"wrong-length x",
			SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: make([]float64, 289), X: make([]float64, 3)},
			http.StatusBadRequest},
		{"deadline beyond a time.Duration",
			SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: make([]float64, 289), DeadlineMs: overlargeDeadlineMs},
			http.StatusBadRequest},
	} {
		_, err := cl.Solve(ctx, tc.req)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != tc.code {
			t.Errorf("%s: err = %v, want HTTP %d", tc.name, err, tc.code)
			continue
		}
		if se.Shed() {
			t.Errorf("%s: an invalid request was classified as shed", tc.name)
		}
	}

	// A batch with an overlarge deadline is refused like a solve.
	_, err = cl.Batch(ctx, BatchRequest{
		Family: "poisson", N: 17, Accuracy: 1e3,
		Problems: []BatchProblem{{B: make([]float64, 289)}}, DeadlineMs: overlargeDeadlineMs,
	})
	if se := (*StatusError)(nil); !errors.As(err, &se) || se.Code != http.StatusBadRequest || se.Shed() {
		t.Errorf("batch with an overlarge deadline: err = %v, want HTTP 400", err)
	}

	// A syntactically broken body is a 400 before any routing.
	if _, err := cl.SolveBytes(ctx, []byte("{")); err == nil {
		t.Error("broken JSON body accepted")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("broken JSON body: err = %v, want HTTP 400", err)
		}
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 || m.Draining || m.Aggregate.Completed != 1 || m.Aggregate.Failed != 0 {
		t.Errorf("metrics after round trip = %+v", m)
	}
	// Only the round trip took a slot: every refusal above came before
	// admission, and none was shed.
	if m.Aggregate.Admitted != 1 || m.Aggregate.Shed != 0 {
		t.Errorf("admitted = %d, shed = %d; want 1 and 0", m.Aggregate.Admitted, m.Aggregate.Shed)
	}
	if m.Unroutable != 1 {
		t.Errorf("unroutable = %d, want 1 (the varcoef request)", m.Unroutable)
	}
}

// TestServeBatch: one batch fans its problems across the family quota
// under a single queue ticket; a broken problem fails alone while its
// siblings complete.
func TestServeBatch(t *testing.T) {
	_, cl := startServer(t, Config{Quotas: map[string]int{"poisson": 2, "poisson3d": 1}})
	ctx := context.Background()

	const nProblems = 4
	probs := make([]*pbmg.Problem, nProblems)
	req := BatchRequest{Family: "poisson", N: 17, Accuracy: 1e3}
	for i := range probs {
		probs[i] = newProblem(t, pbmg.FamilyPoisson, 17, int64(100+i))
		req.Problems = append(req.Problems, BatchProblem{
			B: probs[i].B.Data(), X: probs[i].NewState().Data(),
		})
	}
	req.Problems = append(req.Problems, BatchProblem{B: make([]float64, 7)}) // broken

	resp, err := cl.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != nProblems+1 {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), nProblems+1)
	}
	for i, p := range probs {
		r := resp.Results[i]
		if r.Error != "" {
			t.Fatalf("batch problem %d failed: %s", i, r.Error)
		}
		x := pbmg.NewGrid(17)
		copy(x.Data(), r.X)
		if got := p.AccuracyOf(x); got < 1e3 {
			t.Errorf("batch problem %d accuracy %.3g, want ≥ 1e3", i, got)
		}
	}
	if bad := resp.Results[nProblems]; bad.Error == "" || bad.X != nil {
		t.Errorf("broken batch problem = %+v, want an error and no solution", bad)
	}
}

// TestServeQuotaShedding: the bounded admission queue sheds
// deterministically — a request queued past its deadline gets 503, a
// request arriving at a full queue gets 429 + Retry-After, both visible
// in /metrics, and traffic flows again once the gate frees.
func TestServeQuotaShedding(t *testing.T) {
	srv, cl := startServer(t, Config{
		Quotas:     map[string]int{"poisson": 1, "poisson3d": 1},
		QueueDepth: 1,
	})
	ctx := context.Background()
	svc := familyService(t, srv, "poisson")

	// Occupy the family's only solve slot.
	releaseSlot := occupy(t, svc, 1)

	p := newProblem(t, pbmg.FamilyPoisson, 17, 7)
	req := SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data(), DeadlineMs: 50}

	// The request takes the one queue place, waits for a slot that never
	// frees, and is shed when its deadline expires: 503.
	_, err := cl.Solve(ctx, req)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || !se.Shed() || se.RetryAfter < 1 {
		t.Fatalf("queued-past-deadline request: err = %v, want a retryable 503", err)
	}
	if got := svc.Metrics().ShedDeadline; got != 1 {
		t.Errorf("shedDeadline = %d, want 1", got)
	}

	// Fill the queue: the next request is shed immediately with 429.
	releaseQueued := occupy(t, svc, 1)
	if _, err := cl.Solve(ctx, req); !errors.As(err, &se) ||
		se.Code != http.StatusTooManyRequests || !se.Shed() || se.RetryAfter < 1 {
		t.Fatalf("full-queue request: err = %v, want a retryable 429", err)
	}
	if got := svc.Metrics().ShedQueueFull; got != 1 {
		t.Errorf("shedQueueFull = %d, want 1", got)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var fs *FamilyStatus
	for i := range m.Families {
		if m.Families[i].Family == "poisson" {
			fs = &m.Families[i]
		}
	}
	if fs == nil || fs.Quota != 1 || fs.QueueDepth != 1 || fs.ShedDeadline != 1 || fs.ShedQueueFull != 1 {
		t.Errorf("poisson family status = %+v, want quota 1, queue 1, one shed of each kind", fs)
	}

	// Free the family: the same request is served normally again.
	releaseSlot()
	releaseQueued()
	if _, err := cl.Solve(ctx, req); err != nil {
		t.Fatalf("request after the gate freed: %v", err)
	}
}

// TestServeQuotaIsolation is the starvation regression: with per-family
// quotas the global limit is raised to the quota sum, so a 3D burst
// holding every 3D slot (and its whole queue) cannot keep a 2D request
// from being admitted — and the burst itself is shed with 429 instead of
// spilling into shared capacity.
func TestServeQuotaIsolation(t *testing.T) {
	srv, cl := startServer(t, Config{
		MaxInFlight: 2, // deliberately smaller than the quota sum
		Quotas:      map[string]int{"poisson": 2, "poisson3d": 2},
	})
	ctx := context.Background()

	svc3 := familyService(t, srv, "poisson3d")
	defer occupy(t, svc3, svc3.Quota()+svc3.QueueDepth())()

	// 2D traffic is admitted and served despite the saturated 3D family.
	p := newProblem(t, pbmg.FamilyPoisson, 17, 7)
	if _, err := cl.Solve(ctx, SolveRequest{
		Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data(), DeadlineMs: 5000,
	}); err != nil {
		t.Fatalf("2D request starved behind the 3D burst: %v", err)
	}

	// Further 3D arrivals shed at their own gate.
	var se *StatusError
	if _, err := cl.Solve(ctx, SolveRequest{
		Family: "poisson3d", N: 9, Accuracy: 1e3, B: make([]float64, 9*9*9),
	}); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("3D request at a full gate: err = %v, want 429", err)
	}

	// The registry-wide limit must be the quota sum, not the configured 2:
	// otherwise the global semaphore would re-introduce the starvation the
	// quotas exist to fix.
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.GlobalMaxInFlight != 4 {
		t.Errorf("GlobalMaxInFlight = %d, want the quota sum 4", m.GlobalMaxInFlight)
	}
}

// TestServeReloadUnderTraffic: catalog swaps under live load lose zero
// requests, bump the version, retire the old generation; a broken config
// directory is rejected all-or-nothing with the live catalog untouched.
func TestServeReloadUnderTraffic(t *testing.T) {
	// A private copy of the tables, so the test can break and fix it.
	dir := copyTables(t)
	srv, cl := startServer(t, Config{Dir: dir})

	p := newProblem(t, pbmg.FamilyPoisson, 9, 3)
	body, err := json.Marshal(SolveRequest{Family: "poisson", N: 9, Accuracy: 1e3, B: p.B.Data()})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.SolveBytes(context.Background(), body); err != nil {
					t.Errorf("request lost during reload: %v", err)
					return
				}
				completed.Add(1)
			}
		}()
	}

	srv.mu.RLock()
	first := srv.cur
	srv.mu.RUnlock()

	for i := 0; i < 5; i++ {
		v, err := srv.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i+2) {
			t.Errorf("reload %d: version = %d, want %d", i, v, i+2)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A broken directory must be rejected as a whole, leaving the live
	// catalog serving at its current version.
	if err := os.WriteFile(filepath.Join(dir, "zbroken.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload(); err == nil {
		t.Error("reload of a broken directory succeeded")
	}
	if _, err := cl.SolveBytes(context.Background(), body); err != nil {
		t.Errorf("live catalog stopped serving after a rejected reload: %v", err)
	}
	if got := srv.version.Load(); got != 6 {
		t.Errorf("version after rejected reload = %d, want 6", got)
	}

	// Fixing the directory makes the next reload land.
	if err := os.Remove(filepath.Join(dir, "zbroken.json")); err != nil {
		t.Fatal(err)
	}
	if v, err := srv.Reload(); err != nil || v != 7 {
		t.Errorf("reload after fixing the directory: version %d, err %v", v, err)
	}

	close(stop)
	wg.Wait()
	if completed.Load() == 0 {
		t.Error("no traffic flowed during the reload sequence")
	}

	// The first generation must fully retire: every request that pinned it
	// has released it.
	deadline := time.Now().Add(5 * time.Second)
	for first.refs.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("first catalog still holds %d refs after the swap", first.refs.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeReloadRefusesInconsistentBundle: a table file that parses and
// passes every per-table check but claims one level more than it has rows
// for used to load, swap in, and panic on the first request for the largest
// size. POST /-/reload must refuse the whole directory with the cell named,
// and the old generation keeps answering at that size.
func TestServeReloadRefusesInconsistentBundle(t *testing.T) {
	dir := copyTables(t)
	poissonPath := filepath.Join(dir, "00-poisson.json")
	srv, cl := startServer(t, Config{Dir: dir})
	ctx := context.Background()

	good, err := os.ReadFile(poissonPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(good, []byte(`"maxLevel": 4`), []byte(`"maxLevel": 5`), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("poisson table does not carry maxLevel 4; fix the test's corruption")
	}
	if err := os.WriteFile(poissonPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = cl.Reload(ctx)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("reload of an inconsistent bundle: %v, want a 409", err)
	}
	for _, want := range []string{poissonPath, "maxLevel 5", "V table", "level 4"} {
		if !strings.Contains(se.Msg, want) {
			t.Errorf("reload error %q does not name %q", se.Msg, want)
		}
	}
	if got := srv.version.Load(); got != 1 {
		t.Errorf("version after refused reload = %d, want 1", got)
	}
	// All or nothing: the old generation still serves both families, the
	// size the corrupted file lied about included.
	for _, tc := range []struct {
		family pbmg.Family
		n      int
	}{{pbmg.FamilyPoisson, 17}, {pbmg.FamilyPoisson3D, 9}} {
		p := newProblem(t, tc.family, tc.n, 3)
		if _, err := cl.Solve(ctx, SolveRequest{Family: tc.family.String(), N: tc.n, Accuracy: 1e3, B: p.B.Data()}); err != nil {
			t.Errorf("%s N=%d after refused reload: %v", tc.family, tc.n, err)
		}
	}
	// A server must not come up on such a directory either.
	if s, err := New(Config{Dir: dir, Workers: 1}); err == nil {
		s.Close()
		t.Error("serve.New accepted the inconsistent directory")
	}
}

// TestServeGracefulDrain: BeginDrain sheds new requests with a retryable
// 503 while a request already inside admission runs to completion, then
// Drain observes an idle server.
func TestServeGracefulDrain(t *testing.T) {
	srv, cl := startServer(t, Config{Quotas: map[string]int{"poisson": 1, "poisson3d": 1}})
	ctx := context.Background()
	svc := familyService(t, srv, "poisson")

	// Hold the family's only slot so the in-flight request is provably
	// still queued in admission when the drain begins.
	releaseSlot := occupy(t, svc, 1)
	p := newProblem(t, pbmg.FamilyPoisson, 9, 5)
	body, err := json.Marshal(SolveRequest{Family: "poisson", N: 9, Accuracy: 1e3, B: p.B.Data(), DeadlineMs: 30000})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.SolveBytes(ctx, body)
		done <- err
	}()
	waitUntil := time.Now().Add(5 * time.Second)
	for svc.Metrics().QueueLen == 0 {
		if time.Now().After(waitUntil) {
			t.Fatal("in-flight request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	srv.BeginDrain()

	// New serving requests are refused with a retryable 503...
	var se *StatusError
	if _, err := cl.SolveBytes(ctx, body); !errors.As(err, &se) ||
		se.Code != http.StatusServiceUnavailable || !se.Shed() {
		t.Fatalf("request during drain: err = %v, want a retryable 503", err)
	}
	// ...health reports draining...
	resp, err := http.Get(cl.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", resp.StatusCode)
	}
	// ...and /metrics stays available and counts the shed.
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Draining || m.ShedDraining != 1 || m.ActiveRequests != 1 {
		t.Errorf("metrics during drain = draining %v, shedDraining %d, active %d; want true, 1, 1",
			m.Draining, m.ShedDraining, m.ActiveRequests)
	}

	// The admitted request completes once its slot frees — the drain never
	// revokes it.
	releaseSlot()
	if err := <-done; err != nil {
		t.Fatalf("in-flight request lost during drain: %v", err)
	}

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}
}

// TestParseQuotaSpec covers the CLI quota syntax.
func TestParseQuotaSpec(t *testing.T) {
	got, err := ParseQuotaSpec("poisson=6, aniso:0.01=4,poisson3d=2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"poisson": 6, "aniso:0.01": 4, "poisson3d": 2}
	if len(got) != len(want) {
		t.Fatalf("ParseQuotaSpec = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("quota[%s] = %d, want %d", k, got[k], v)
		}
	}
	for _, bad := range []string{"", "poisson", "poisson=0", "poisson=-1", "poisson=x"} {
		if _, err := ParseQuotaSpec(bad); err == nil {
			t.Errorf("ParseQuotaSpec(%q) accepted", bad)
		}
	}
}

// TestServeConfigErrors: a quota naming an unserved family fails the
// catalog build (all-or-nothing), as does a missing directory.
func TestServeConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without a directory succeeded")
	}
	if _, err := New(Config{Dir: tablesDir, Quotas: map[string]int{"varcoef": 2}}); err == nil {
		t.Error("quota for an unserved family accepted")
	}
	if _, err := New(Config{Dir: t.TempDir()}); err == nil {
		t.Error("empty table directory accepted")
	}
}
