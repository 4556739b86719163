package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
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
// exposes it through a real HTTP listener. Cleanup closes the listener,
// which waits for the requests it serves, then closes the server with
// closeServer.
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
		closeServer(t, srv)
	})
	return srv, &Client{BaseURL: hs.URL}
}

// closeServer closes srv and waits at most 5 s for the catalog it served to
// free its pool, then fails naming the references still held: a request
// that never releases its catalog fails the test that made it.
func closeServer(tb testing.TB, srv *Server) {
	tb.Helper()
	c := current(srv)
	srv.Close()
	if c != nil {
		waitClosed(tb, c)
	}
}

// waitClosed waits at most 5 s in all for the release of the last
// reference of every catalog in cs, and fails naming the first still held.
func waitClosed(tb testing.TB, cs ...*catalog) {
	tb.Helper()
	timeout := time.After(5 * time.Second)
	for _, c := range cs {
		select {
		case <-c.closed:
		case <-timeout:
			tb.Errorf("catalog version %d still held by %d references 5s after the server let it go", c.version, c.refs.Load())
			return
		}
	}
}

// current returns the catalog generation srv serves, nil after Close.
func current(srv *Server) *catalog {
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	return srv.cur
}

// The calls the tests make over the wire. Client posts pre-encoded solve
// bodies only (SolveBytes); these marshal requests with encoding/json, and
// reach the other endpoints through the client's own http.Client.

// postSolve marshals req and posts it through cl.SolveBytes.
func postSolve(ctx context.Context, cl *Client, req SolveRequest) (*SolveResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return cl.SolveBytes(ctx, body)
}

// postBatch marshals req, posts it to /v1/batch, and reads the answer in
// whichever framing it comes.
func postBatch(ctx context.Context, cl *Client, req BatchRequest) (*BatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	mediaType, data, err := exchange(ctx, cl, http.MethodPost, "/v1/batch", body)
	if err != nil {
		return nil, err
	}
	var out BatchResponse
	if mediaType == gridMediaType {
		err = decodeGridBatch(data, &out)
	} else {
		err = json.Unmarshal(data, &out)
	}
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// getMetrics reads GET /metrics.
func getMetrics(ctx context.Context, cl *Client) (*Metrics, error) {
	_, data, err := exchange(ctx, cl, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	var out Metrics
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// postReload asks for a catalog rebuild and returns the version it answers.
func postReload(ctx context.Context, cl *Client) (int64, error) {
	_, data, err := exchange(ctx, cl, http.MethodPost, "/-/reload", nil)
	if err != nil {
		return 0, err
	}
	var out struct {
		Version int64 `json:"version"`
	}
	err = json.Unmarshal(data, &out)
	return out.Version, err
}

// exchange sends one request through cl's http.Client, asking for the grid
// framing as SolveBytes does, and returns a 2xx answer's media type and body,
// or the *StatusError SolveBytes makes of any other answer.
func exchange(ctx context.Context, cl *Client, method, path string, body []byte) (mediaType string, data []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, method, cl.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", jsonMediaType)
	req.Header.Set("Accept", gridMediaType+", "+jsonMediaType)
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", nil, statusError(resp)
	}
	mediaType, _, _ = mime.ParseMediaType(resp.Header.Get("Content-Type"))
	data, err = io.ReadAll(resp.Body)
	return mediaType, data, err
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
// state machine itself: each is a solve whose context holds it where it
// stands (heldContext) until release. While the family has free slots they
// become running requests; once it is saturated they park in its queue.
// occupy returns when all n are where they will stay (running or queued);
// release lets them finish and waits for them.
func occupy(t *testing.T, svc *pbmg.Service, n int) (release func()) {
	t.Helper()
	p, err := pbmg.NewFamilyProblem(9, pbmg.Unbiased, 1, svc.Family(), svc.Epsilon())
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Metrics()
	ctx := heldContext{context.Background(), make(chan struct{})}
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := svc.SolveContext(ctx, p.NewState(), p.B, 10); err != nil {
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
	return func() {
		close(ctx.free)
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("releasing %d places of %s: the held solves did not finish", n, svc.Key())
		}
	}
}

// waitQueued waits until n requests wait in the family's admission queue.
func waitQueued(t *testing.T, svc *pbmg.Service, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); svc.Metrics().QueueLen != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d requests queued, want %d", svc.Key(), svc.Metrics().QueueLen, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldContext holds a request where it stands: Done blocks until free is
// closed, then reports a context that is never done. A Service asks for Done
// while a request waits in its queue, and again inside the request's slot,
// where the solve arms its cancellation checks; so a SolveContext under a
// heldContext keeps its queue place or its running slot until free closes,
// and then solves. This breaks the context contract on purpose and relies on
// where a Service calls Done (the comments at admission.go's queue select
// and pbmg.go's solveCtx); release fails the test rather than hang if that
// moves.
type heldContext struct {
	context.Context
	free chan struct{}
}

func (c heldContext) Done() <-chan struct{} {
	<-c.free
	return nil
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
// codes — none of them a load-shedding 429 or 503.
func TestServeSolveRoundTrip(t *testing.T) {
	_, cl := startServer(t, Config{})
	ctx := context.Background()

	p := newProblem(t, pbmg.FamilyPoisson, 17, 42)
	resp, err := postSolve(ctx, cl, SolveRequest{
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
		_, err := postSolve(ctx, cl, tc.req)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != tc.code {
			t.Errorf("%s: err = %v, want HTTP %d", tc.name, err, tc.code)
		}
	}

	// A batch with an overlarge deadline is refused like a solve.
	_, err = postBatch(ctx, cl, BatchRequest{
		Family: "poisson", N: 17, Accuracy: 1e3,
		Problems: []BatchProblem{{B: make([]float64, 289)}}, DeadlineMs: overlargeDeadlineMs,
	})
	if se := (*StatusError)(nil); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
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

	m, err := getMetrics(ctx, cl)
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

	resp, err := postBatch(ctx, cl, req)
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
	_, err := postSolve(ctx, cl, req)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || se.RetryAfter < 1 {
		t.Fatalf("queued-past-deadline request: err = %v, want a retryable 503", err)
	}
	if got := svc.Metrics().ShedDeadline; got != 1 {
		t.Errorf("shedDeadline = %d, want 1", got)
	}

	// Fill the queue: the next request is shed immediately with 429.
	releaseQueued := occupy(t, svc, 1)
	if _, err := postSolve(ctx, cl, req); !errors.As(err, &se) ||
		se.Code != http.StatusTooManyRequests || se.RetryAfter < 1 {
		t.Fatalf("full-queue request: err = %v, want a retryable 429", err)
	}
	if got := svc.Metrics().ShedQueueFull; got != 1 {
		t.Errorf("shedQueueFull = %d, want 1", got)
	}

	m, err := getMetrics(ctx, cl)
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
	if _, err := postSolve(ctx, cl, req); err != nil {
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
	if _, err := postSolve(ctx, cl, SolveRequest{
		Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data(), DeadlineMs: 5000,
	}); err != nil {
		t.Fatalf("2D request starved behind the 3D burst: %v", err)
	}

	// Further 3D arrivals shed at their own gate.
	var se *StatusError
	if _, err := postSolve(ctx, cl, SolveRequest{
		Family: "poisson3d", N: 9, Accuracy: 1e3, B: make([]float64, 9*9*9),
	}); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("3D request at a full gate: err = %v, want 429", err)
	}

	// The registry-wide limit must be the quota sum, not the configured 2:
	// otherwise the global semaphore would re-introduce the starvation the
	// quotas exist to fix.
	m, err := getMetrics(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if m.GlobalMaxInFlight != 4 {
		t.Errorf("GlobalMaxInFlight = %d, want the quota sum 4", m.GlobalMaxInFlight)
	}
}

// TestServeReloadUnderTraffic: catalog swaps under live load lose zero
// requests, bump the version, and free every old generation once its last
// request is done; a broken config directory is rejected all-or-nothing
// with the live catalog untouched.
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

	old := []*catalog{current(srv)}
	for i := 0; i < 5; i++ {
		v, err := srv.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i+2) {
			t.Errorf("reload %d: version = %d, want %d", i, v, i+2)
		}
		old = append(old, current(srv))
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
	if got := current(srv).version; got != 6 {
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

	// Every generation swapped out is freed: each request that pinned it
	// has released it, and the last release closed its pool.
	waitClosed(t, old...)
}

// TestServeReloadSharesOperator: a reload under traffic builds its varcoef
// family on the operator the generation it replaces holds — one coefficient
// field and coarse hierarchy per process, not one per generation — and once
// the traffic stops every scratch set either generation checked out is back.
func TestServeReloadSharesOperator(t *testing.T) {
	dir := copyTables(t)
	vs, err := pbmg.Tune(pbmg.Options{MaxSize: 17, Family: pbmg.FamilyVarCoef, Machine: "intel-harpertown", Seed: 5})
	if err == nil {
		err = vs.Save(filepath.Join(dir, "02-varcoef.json"))
		vs.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, Config{Dir: dir})
	p := newProblem(t, pbmg.FamilyVarCoef, 17, 3)
	body, err := json.Marshal(SolveRequest{Family: "varcoef", N: 17, Accuracy: 1e3, B: p.B.Data()})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
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

	old := srv.acquireCatalog() // held across the reload
	oldSvc, err := old.route("varcoef", 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	newSvc, err := current(srv).route("varcoef", 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	oldOp, newOp := oldSvc.Solver().Workspace().Operator(), newSvc.Solver().Workspace().Operator()
	if newSvc.Solver() == oldSvc.Solver() {
		t.Error("the reload reused the old generation's solver")
	}
	if newOp != oldOp {
		t.Errorf("the reloaded varcoef family runs on operator %p, the generation it replaced on %p: want one", newOp, oldOp)
	}
	old.release()

	close(stop)
	wg.Wait()
	if completed.Load() == 0 {
		t.Error("no traffic flowed across the reload")
	}
	waitClosed(t, old)
	for gen, svc := range map[string]*pbmg.Service{"old": oldSvc, "new": newSvc} {
		if n := svc.Solver().Workspace().ScratchOutstanding(); n != 0 {
			t.Errorf("%s generation: %d scratch sets still checked out after the traffic stopped", gen, n)
		}
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

	_, err = postReload(ctx, cl)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("reload of an inconsistent bundle: %v, want a 409", err)
	}
	for _, want := range []string{poissonPath, "maxLevel 5", "V table", "level 4"} {
		if !strings.Contains(se.Msg, want) {
			t.Errorf("reload error %q does not name %q", se.Msg, want)
		}
	}
	if got := current(srv).version; got != 1 {
		t.Errorf("version after refused reload = %d, want 1", got)
	}
	// All or nothing: the old generation still serves both families, the
	// size the corrupted file lied about included.
	for _, tc := range []struct {
		family pbmg.Family
		n      int
	}{{pbmg.FamilyPoisson, 17}, {pbmg.FamilyPoisson3D, 9}} {
		p := newProblem(t, tc.family, tc.n, 3)
		if _, err := postSolve(ctx, cl, SolveRequest{Family: tc.family.String(), N: tc.n, Accuracy: 1e3, B: p.B.Data()}); err != nil {
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
	waitQueued(t, svc, 1)

	srv.BeginDrain()

	// New serving requests are refused with a retryable 503...
	var se *StatusError
	if _, err := cl.SolveBytes(ctx, body); !errors.As(err, &se) ||
		se.Code != http.StatusServiceUnavailable {
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
	m, err := getMetrics(ctx, cl)
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
	for _, bad := range []string{"", "poisson", "poisson=0", "poisson=-1", "poisson=x", "poisson=2,poisson=3", "poisson=2, poisson =3"} {
		if _, err := ParseQuotaSpec(bad); err == nil {
			t.Errorf("ParseQuotaSpec(%q) accepted", bad)
		}
	}
	// A family named twice is refused by name, not kept at its last count.
	if _, err := ParseQuotaSpec("poisson=2, poisson =3"); err == nil || !strings.Contains(err.Error(), "names poisson twice") {
		t.Errorf("a repeated family: err = %v, want one naming poisson twice", err)
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
