package mixload

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pbmg"
	"pbmg/serve"
)

// shedScript is a fake /v1/solve endpoint answering a fixed per-request
// status sequence: each incoming solve walks the script by its attempt
// number, so retries are observable without a real server melting down on
// cue. Requests are identified by body (the load driver re-posts the same
// pre-marshaled body on retry).
type shedScript struct {
	script   []int // status per attempt; past the end: 200
	attempts atomic.Int64
}

func (ss *shedScript) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempt := int(ss.attempts.Add(1)) - 1
		var req serve.SolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		idx := attempt % (len(ss.script) + 1)
		if idx < len(ss.script) {
			code := ss.script[idx]
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(serve.ErrorResponse{Error: http.StatusText(code)})
			return
		}
		n := req.N
		w.Header().Set("Content-Type", "application/json") // the client picks its decoder by it
		json.NewEncoder(w).Encode(serve.SolveResponse{
			X: make([]float64, n*n), Family: req.Family, N: n, SolveNs: 1,
		})
	})
}

func retryOptions(url string, retries, requests int) Options {
	return Options{
		URL:      url,
		Keys:     []pbmg.ServeKey{{Family: pbmg.FamilyPoisson, Dim: 2}},
		ReqN:     []int{9},
		Clients:  1,
		Requests: requests,
		Acc:      1e3,
		Dist:     pbmg.Unbiased,
		Seed:     7,
		Retries:  retries,
	}
}

// TestHTTPRetryHonorsBudget: a request shed with 429 then 503 is retried
// (within the budget) until the server serves it, with each retry counted
// by the shed class that triggered it and nothing recorded as shed.
func TestHTTPRetryHonorsBudget(t *testing.T) {
	ss := &shedScript{script: []int{http.StatusTooManyRequests, http.StatusServiceUnavailable}}
	hs := httptest.NewServer(ss.handler())
	defer hs.Close()

	res, err := Run(retryOptions(hs.URL, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 {
		t.Errorf("Shed = %d, want 0 (every request retried through)", res.Shed)
	}
	if len(res.All) != 2 {
		t.Errorf("measured %d latencies, want 2", len(res.All))
	}
	if res.Retries429 != 2 || res.Retries503 != 2 {
		t.Errorf("retries = 429:%d 503:%d, want 2 each (one of each class per request)",
			res.Retries429, res.Retries503)
	}
	if got := ss.attempts.Load(); got != 6 {
		t.Errorf("server saw %d attempts, want 6 (3 per request)", got)
	}
}

// TestHTTPRetryDisabled: with Retries 0 every shed counts immediately and
// no retry traffic is generated.
func TestHTTPRetryDisabled(t *testing.T) {
	// Attempts 0 and 1 are shed; attempt 2 walks past the script and is
	// served, so the run has a completed request to report.
	ss := &shedScript{script: []int{
		http.StatusTooManyRequests, http.StatusTooManyRequests,
	}}
	hs := httptest.NewServer(ss.handler())
	defer hs.Close()

	res, err := Run(retryOptions(hs.URL, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 2 || res.Retries429 != 0 || res.Retries503 != 0 {
		t.Errorf("shed %d, retries 429:%d 503:%d; want 2 sheds, no retries",
			res.Shed, res.Retries429, res.Retries503)
	}
	if len(res.All) != 1 {
		t.Errorf("measured %d latencies, want 1 (only the served request)", len(res.All))
	}
	if got := ss.attempts.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (no retry traffic)", got)
	}
}

// TestHTTPRetryBudgetExhausted: a server that keeps shedding exhausts the
// budget; the request then counts as shed (not as a run failure).
func TestHTTPRetryBudgetExhausted(t *testing.T) {
	// With Retries 1, request one burns attempts 0 and 1 (both 503) and is
	// shed; request two sees attempt 2 (503), retries, and attempt 3 walks
	// past the script to a 200 — the run completes with one measurement.
	ss := &shedScript{script: []int{
		http.StatusServiceUnavailable, http.StatusServiceUnavailable,
		http.StatusServiceUnavailable,
	}}
	hs := httptest.NewServer(ss.handler())
	defer hs.Close()

	res, err := Run(retryOptions(hs.URL, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 1 {
		t.Errorf("Shed = %d, want 1 (budget exhausted on the first request)", res.Shed)
	}
	if res.Retries503 != 2 {
		t.Errorf("Retries503 = %d, want 2 (one retry per request)", res.Retries503)
	}
	if len(res.All) != 1 {
		t.Errorf("measured %d latencies, want 1 (only the served request)", len(res.All))
	}
	if got := ss.attempts.Load(); got != 4 {
		t.Errorf("server saw %d attempts, want 4", got)
	}
}

// TestHTTPRetryHonorsRetryAfter: an explicit Retry-After hint delays the
// retry at least that long — the client must never come back early.
func TestHTTPRetryHonorsRetryAfter(t *testing.T) {
	var firstAt, retryAt atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.SolveRequest
		json.NewDecoder(r.Body).Decode(&req)
		if firstAt.CompareAndSwap(0, time.Now().UnixNano()) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "breaker open"})
			return
		}
		retryAt.Store(time.Now().UnixNano())
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.SolveResponse{X: make([]float64, req.N*req.N), Family: req.Family, N: req.N, SolveNs: 1})
	}))
	defer hs.Close()

	res, err := Run(retryOptions(hs.URL, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 || res.Retries503 != 1 {
		t.Fatalf("shed %d, retries503 %d; want a single successful retry", res.Shed, res.Retries503)
	}
	waited := time.Duration(retryAt.Load() - firstAt.Load())
	if waited < time.Second {
		t.Errorf("client retried after %v, before the 1s Retry-After hint", waited)
	}
	if waited > 3*time.Second {
		t.Errorf("client waited %v on a 1s hint (jitter is bounded at +25%%)", waited)
	}
}
