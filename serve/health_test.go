package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"pbmg"
)

// TestServeRejectsNonFiniteInput: NaN/Inf grid values are rejected with an
// error naming the offending index before the request is admitted — garbage
// never reaches the solver and burns no queue slot. Standard JSON cannot
// carry a literal NaN, so the index-naming guard is exercised white-box
// through buildGrids (it also protects any future non-JSON ingress), and
// the wire-level defense (a number too large for float64) is checked
// end-to-end for a 400.
func TestServeRejectsNonFiniteInput(t *testing.T) {
	srv, cl := startServer(t, Config{})
	ctx := context.Background()

	svc := familyService(t, srv, "poisson")
	p := newProblem(t, pbmg.FamilyPoisson, 17, 9)
	for _, tc := range []struct {
		name    string
		poison  func(b, x []float64)
		mention string
	}{
		{"NaN in b", func(b, x []float64) { b[7] = math.NaN() }, "b[7]"},
		{"+Inf in b", func(b, x []float64) { b[0] = math.Inf(1) }, "b[0]"},
		{"-Inf in x", func(b, x []float64) { x[288] = math.Inf(-1) }, "x[288]"},
	} {
		b := append([]float64(nil), p.B.Data()...)
		x := make([]float64, 17*17)
		tc.poison(b, x)
		_, _, err := buildGrids(svc, 17, b, x, nil)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("%s: error %q does not name the offending index %s", tc.name, err, tc.mention)
		}
	}

	// Over the wire, a value JSON can carry but float64 cannot hold is
	// refused with a 400 at decode, before routing or admission.
	body := []byte(`{"family":"poisson","n":17,"accuracy":1e3,"b":[1e999]}`)
	_, err := cl.SolveBytes(ctx, body)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("overflow request: err = %v, want HTTP 400", err)
	}

	m, err := getMetrics(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.Admitted != 0 || m.Aggregate.Failed != 0 || m.Aggregate.Diverged != 0 {
		t.Errorf("rejected inputs reached admission: %+v", m.Aggregate)
	}
}

// TestServeRejectsBadGridSide: a side that is not 2^k+1, or past the tuned
// size, is refused with a 400 before admission, on a solve and on a batch:
// no request takes a slot, so none counts as admitted or failed.
func TestServeRejectsBadGridSide(t *testing.T) {
	_, cl := startServer(t, Config{})
	ctx := context.Background()
	for _, n := range []int{4, 65} {
		b := make([]float64, n*n)
		_, err := postSolve(ctx, cl, SolveRequest{Family: "poisson", N: n, Accuracy: 1e3, B: b})
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("solve at n=%d: err = %v, want HTTP 400", n, err)
		}
		_, err = postBatch(ctx, cl, BatchRequest{Family: "poisson", N: n, Accuracy: 1e3, Problems: []BatchProblem{{B: b}, {B: b}}})
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("batch at n=%d: err = %v, want HTTP 400", n, err)
		}
	}
	m, err := getMetrics(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.Admitted != 0 || m.Aggregate.Failed != 0 {
		t.Errorf("bad sides reached admission: %+v", m.Aggregate)
	}
}

// TestHealthzReadyz: both probes answer 200 on a healthy server, and both
// flip to 503 + Retry-After once draining begins — readyz reporting the
// drain and the per-family breaker states.
func TestHealthzReadyz(t *testing.T) {
	srv, cl := startServer(t, Config{})

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(cl.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	resp, _ := get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz = %d, want 200", resp.StatusCode)
	}

	resp, body := get("/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /readyz = %d: %s", resp.StatusCode, body)
	}
	var ready struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
		Families []struct {
			Family  string `json:"family"`
			Breaker string `json:"breaker"`
		} `json:"families"`
	}
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || ready.Draining {
		t.Errorf("healthy /readyz body = %+v", ready)
	}
	if len(ready.Families) == 0 {
		t.Fatal("/readyz reports no families")
	}
	for _, f := range ready.Families {
		if f.Breaker != "closed" {
			t.Errorf("family %s breaker = %q at startup, want closed", f.Family, f.Breaker)
		}
	}

	srv.BeginDrain()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, body := get(path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining %s = %d, want 503: %s", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("draining %s has no Retry-After hint", path)
		}
	}
	resp, body = get("/readyz")
	_ = resp
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "not ready" || !ready.Draining {
		t.Errorf("draining /readyz body = %+v", ready)
	}
}
