//go:build faultinject

// Chaos tests: drive a real serve.Server through injected solver and
// catalog failures (see internal/faultinject) and assert the blast radius
// stays contained — requests fail with the right status, the daemon keeps
// serving, the breaker sheds and recovers, and a broken reload never
// poisons the live catalog.
//
// The shared serve_test.go tables stop at N=17, where the tuned plan is a
// pure direct solve that executes no cycles and no SOR sweeps — none of
// the solver fault points fire. Chaos scenarios therefore tune their own
// MaxSize-33 poisson table once and solve at n=33.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pbmg"
	"pbmg/internal/faultinject"
)

var (
	chaosOnce sync.Once
	chaosDir  string
	chaosErr  error
)

// chaosTables tunes a poisson table that actually runs cycles (MaxSize
// 33), once for the whole chaos suite.
func chaosTables(t *testing.T) string {
	t.Helper()
	chaosOnce.Do(func() {
		dir, err := os.MkdirTemp("", "serve-chaos-tables-")
		if err != nil {
			chaosErr = err
			return
		}
		s, err := pbmg.Tune(pbmg.Options{
			MaxSize: 33, Family: pbmg.FamilyPoisson,
			Machine: "intel-harpertown", Seed: 5,
		})
		if err == nil {
			err = s.Save(filepath.Join(dir, "00-poisson.json"))
			s.Close()
		}
		if err != nil {
			os.RemoveAll(dir)
			chaosErr = err
			return
		}
		chaosDir = dir
	})
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	return chaosDir
}

// chaosServer starts a server over the MaxSize-33 table with faults
// guaranteed clear before and after the test.
func chaosServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	faultinject.Clear()
	t.Cleanup(faultinject.Clear)
	cfg.Dir = chaosTables(t)
	return startServer(t, cfg)
}

// postFault arms (or, with an empty spec, clears) faults through the
// chaos-build-only endpoint.
func postFault(t *testing.T, cl *Client, spec string) {
	t.Helper()
	resp, err := http.Post(cl.BaseURL+"/-/fault", "text/plain", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /-/fault %q = %d", spec, resp.StatusCode)
	}
}

func chaosSolve(t *testing.T, cl *Client, seed int64, deadlineMs int64, accuracy float64) (*SolveResponse, error) {
	t.Helper()
	// No reference solve: it would run multigrid cycles in this process
	// and take the armed faults meant for the server's solve.
	p, err := pbmg.NewFamilyProblem(33, pbmg.Unbiased, seed, pbmg.FamilyPoisson, 0)
	if err != nil {
		t.Fatal(err)
	}
	return postSolve(context.Background(), cl, SolveRequest{
		Family: "poisson", N: 33, Accuracy: accuracy,
		B: p.B.Data(), X: p.NewState().Data(), DeadlineMs: deadlineMs,
	})
}

// TestChaosPanicContainment: an injected kernel panic answers 500 for the
// poisoned request only — the daemon survives and the very next solve on
// the same family succeeds.
func TestChaosPanicContainment(t *testing.T) {
	_, cl := chaosServer(t, Config{})
	ctx := context.Background()

	postFault(t, cl, "mg.cycle:panic,count=1")
	_, err := chaosSolve(t, cl, 1, 0, 1e3)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("poisoned solve: err = %v, want HTTP 500", err)
	}
	if !strings.Contains(se.Msg, "panic") {
		t.Errorf("500 body %q does not mention the panic", se.Msg)
	}

	resp, err := chaosSolve(t, cl, 2, 0, 1e3)
	if err != nil {
		t.Fatalf("solve after contained panic: %v", err)
	}
	p := newProblem(t, pbmg.FamilyPoisson, 33, 2)
	x := pbmg.NewGrid(33)
	copy(x.Data(), resp.X)
	if got := p.AccuracyOf(x); got < 1e3 {
		t.Errorf("post-panic solution accuracy %.3g, want ≥ 1e3", got)
	}

	m, err := getMetrics(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.Panicked != 1 || m.Aggregate.Failed != 1 || m.Aggregate.Completed != 1 {
		t.Errorf("metrics after contained panic = %+v", m.Aggregate)
	}
}

// TestChaosBreakerTrip: repeated injected panics open the family breaker,
// which sheds with 503 + Retry-After and flips /readyz to 503; after the
// cooldown a half-open probe recloses it and readiness returns.
func TestChaosBreakerTrip(t *testing.T) {
	srv, cl := chaosServer(t, Config{
		Breaker: pbmg.BreakerConfig{Threshold: 2, Cooldown: 300 * time.Millisecond},
	})
	_ = srv

	readyz := func() int {
		t.Helper()
		resp, err := http.Get(cl.BaseURL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	postFault(t, cl, "mg.cycle:panic,count=2")
	for i := int64(0); i < 2; i++ {
		_, err := chaosSolve(t, cl, 10+i, 0, 1e3)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
			t.Fatalf("panic %d: err = %v, want HTTP 500", i, err)
		}
	}

	// The threshold is reached: the third request is shed without touching
	// the solver, and the instance reports itself not ready.
	_, err := chaosSolve(t, cl, 12, 0, 1e3)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open solve: err = %v, want HTTP 503", err)
	}
	if se.RetryAfter < 1 {
		t.Errorf("breaker shed = %+v, want a Retry-After hint", se)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz with an open breaker = %d, want 503", got)
	}

	// Past the cooldown the half-open probe runs a real solve (the panic
	// budget is exhausted), recloses the breaker, and readiness returns.
	time.Sleep(400 * time.Millisecond)
	if _, err := chaosSolve(t, cl, 13, 0, 1e3); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if _, err := chaosSolve(t, cl, 14, 0, 1e3); err != nil {
		t.Fatalf("solve after reclose: %v", err)
	}
	if got := readyz(); got != http.StatusOK {
		t.Errorf("/readyz after breaker reclose = %d, want 200", got)
	}
}

// TestChaosSlowKernelDeadline: a delay fault stretching every SOR sweep
// makes the solve blow its request deadline; the solve is cancelled
// cooperatively at a cycle boundary and answered 503, and the family
// keeps serving afterwards.
func TestChaosSlowKernelDeadline(t *testing.T) {
	_, cl := chaosServer(t, Config{})
	ctx := context.Background()

	// 20ms per sweep makes the first cycle alone overshoot the 100ms
	// request deadline; accuracy 1e9 guarantees the plan wants more than
	// one cycle, so the next checkpoint observes the expired context.
	postFault(t, cl, "stencil.sweep:delay,delay=20ms")
	_, err := chaosSolve(t, cl, 20, 100, 1e9)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline-bound slow solve: err = %v, want HTTP 503", err)
	}

	postFault(t, cl, "") // clear: the family must serve again at once
	if _, err := chaosSolve(t, cl, 21, 0, 1e3); err != nil {
		t.Fatalf("solve after slow-kernel run: %v", err)
	}

	m, err := getMetrics(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.Cancelled+m.Aggregate.Shed == 0 {
		t.Errorf("slow solve recorded neither cancelled nor shed: %+v", m.Aggregate)
	}
	if m.Aggregate.Panicked != 0 || m.Aggregate.Diverged != 0 {
		t.Errorf("slow solve misclassified: %+v", m.Aggregate)
	}
}

// TestChaosReloadFailure: an injected catalog-build error fails the reload
// with 409 and leaves the live catalog serving at its old version; once
// the fault clears, reload lands and bumps the version.
func TestChaosReloadFailure(t *testing.T) {
	_, cl := chaosServer(t, Config{})
	ctx := context.Background()

	postFault(t, cl, "serve.reload:error,count=1")
	resp, err := http.Post(cl.BaseURL+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("broken reload = %d, want 409", resp.StatusCode)
	}

	m, err := getMetrics(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 {
		t.Errorf("version after failed reload = %d, want 1", m.Version)
	}
	if _, err := chaosSolve(t, cl, 30, 0, 1e3); err != nil {
		t.Fatalf("solve on the surviving catalog: %v", err)
	}

	// The count=1 fault is spent: the next reload succeeds.
	resp, err = http.Post(cl.BaseURL+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after fault cleared = %d, want 200", resp.StatusCode)
	}
	if m, err = getMetrics(ctx, cl); err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Errorf("version after healthy reload = %d, want 2", m.Version)
	}
}

// TestChaosFaultEndpointValidation: the fault endpoint is all-or-nothing —
// a bad spec is rejected with 400 and arms nothing.
func TestChaosFaultEndpointValidation(t *testing.T) {
	_, cl := chaosServer(t, Config{})

	resp, err := http.Post(cl.BaseURL+"/-/fault", "text/plain",
		strings.NewReader("mg.cycle:panic;bogus:frobnicate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fault spec = %d, want 400", resp.StatusCode)
	}
	if armed := faultinject.Armed(); len(armed) != 0 {
		t.Fatalf("rejected spec armed %v", armed)
	}

	// Sanity: the error body names the offending item.
	postFault(t, cl, "mg.cycle:panic,count=1")
	if armed := faultinject.Armed(); len(armed) != 1 {
		t.Fatalf("armed = %v, want exactly mg.cycle", armed)
	}
	postFault(t, cl, "")
	if armed := faultinject.Armed(); len(armed) != 0 {
		t.Fatalf("clear left %v armed", armed)
	}
}

// TestChaosFramingsAgreeOnFailures: a solve that diverges or panics answers
// the same 500 with the same JSON body whether or not the request asked for
// the grid framing (the rest of the error classes: TestFramingsAgree).
func TestChaosFramingsAgreeOnFailures(t *testing.T) {
	_, cl := chaosServer(t, Config{Breaker: pbmg.BreakerConfig{Threshold: 100}})
	p := newProblem(t, pbmg.FamilyPoisson, 33, 3)
	body, err := json.Marshal(SolveRequest{Family: "poisson", N: 33, Accuracy: 1e3, B: p.B.Data(), X: p.NewState().Data()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ spec, mention string }{
		{"mg.cycle.nan:nan", "diverged"},
		{"mg.cycle:panic", "panic"},
	} {
		postFault(t, cl, tc.spec)
		ja := postRaw(t, cl.BaseURL+"/v1/solve", body, "")
		ga := postRaw(t, cl.BaseURL+"/v1/solve", body, "application/x-pbmg-grid, application/json")
		var er ErrorResponse
		if ja.status != http.StatusInternalServerError || ga.status != ja.status || ga.contentType != jsonMediaType ||
			!bytes.Equal(ja.body, ga.body) || json.Unmarshal(ja.body, &er) != nil || !strings.Contains(er.Error, tc.mention) {
			t.Errorf("%s: JSON request answered %d %q, grid request %d %s %q; want the same 500 mentioning %q",
				tc.spec, ja.status, ja.body, ga.status, ga.contentType, ga.body, tc.mention)
		}
	}
	postFault(t, cl, "")
	if resp, err := chaosSolve(t, cl, 4, 0, 1e3); err != nil || len(resp.X) != 33*33 {
		t.Fatalf("grid-framed solve after the faults cleared: %v", err)
	}
}
