package mixload

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbmg"
	"pbmg/serve"
)

// tunedPoisson memoizes one small tuned solver for the whole test binary.
var (
	tunedOnce sync.Once
	tunedS    *pbmg.Solver
	tunedErr  error
)

func poissonSolver(t *testing.T) *pbmg.Solver {
	t.Helper()
	tunedOnce.Do(func() {
		tunedS, tunedErr = pbmg.Tune(pbmg.Options{
			MaxSize: 17, Family: pbmg.FamilyPoisson,
			Machine: "intel-harpertown", Seed: 5,
		})
	})
	if tunedErr != nil {
		t.Fatal(tunedErr)
	}
	return tunedS
}

// TestPercentileNearestRank pins the nearest-rank (ceiling) definition:
// the reported quantile is the smallest sample covering at least the q
// fraction of the distribution — an actually observed latency, never an
// index truncated down toward the median.
func TestPercentileNearestRank(t *testing.T) {
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration((i + 1) * 10) // 10, 20, …, 100
	}
	for _, tc := range []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.99, 0},
		{"single", []time.Duration{7}, 0.5, 7},
		{"single p99", []time.Duration{7}, 0.99, 7},
		{"min", ten, 0, 10},
		{"p10 is the first sample", ten, 0.10, 10},
		{"p25 rounds up", ten, 0.25, 30},
		// The regression: nearest-rank p50 of an even-sized sample is the
		// LOWER middle (ceil(5)−1 = index 4), not index 5.
		{"p50 even n", ten, 0.50, 50},
		{"just past p50", ten, 0.51, 60},
		{"p90", ten, 0.90, 90},
		{"p99 small sample is the max", ten, 0.99, 100},
		{"p99 of three", []time.Duration{1, 2, 3}, 0.99, 3},
		{"max", ten, 1.0, 100},
		{"clamped above", ten, 1.5, 100},
		{"clamped below", ten, -0.5, 10},
	} {
		if got := Percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: Percentile(q=%g) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestRunRequestCountAccounting: in request-count mode every request is
// either measured or shed — none vanish.
func TestRunRequestCountAccounting(t *testing.T) {
	s := poissonSolver(t)
	svc := s.NewService(2)
	res, err := Run(Options{
		Services: []*pbmg.Service{svc},
		ReqN:     []int{9},
		Clients:  4,
		Requests: 18, // not divisible by clients: the remainder must not be dropped
		Acc:      1e3,
		Dist:     pbmg.Unbiased,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.All) + int(res.Shed); got != 18 {
		t.Fatalf("measured %d + shed %d requests, want 18 total", len(res.All), res.Shed)
	}
	if res.Overshoot != 0 {
		t.Errorf("request-count mode reported overshoot %v", res.Overshoot)
	}
	for i := 1; i < len(res.All); i++ {
		if res.All[i] < res.All[i-1] {
			t.Fatal("latencies are not sorted")
		}
	}
}

// TestRunDeadlineBoundsAdmission: in duration mode the run deadline also
// bounds ADMISSION — a client parked in the admission queue when the
// deadline passes is shed and exits instead of overshooting by a queue
// wait plus a solve. The regression this pins: overshoot used to be
// unbounded because admission waited on a background context.
func TestRunDeadlineBoundsAdmission(t *testing.T) {
	s := poissonSolver(t)
	svc := s.NewService(1) // one slot: most clients queue in admission
	deadline := time.Now().Add(150 * time.Millisecond)
	res, err := Run(Options{
		Services: []*pbmg.Service{svc},
		ReqN:     []int{17},
		Clients:  6,
		Requests: 0, // duration mode
		Deadline: deadline,
		Acc:      1e5,
		Dist:     pbmg.Unbiased,
		Seed:     9,
	})
	returned := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 100*time.Millisecond {
		t.Errorf("run stopped after %v, before the deadline", res.Elapsed)
	}
	// Overshoot is at most one admitted solve past the deadline — a small
	// 2D solve, nowhere near an unbounded queue wait. The generous bound
	// still catches the old behavior, where a parked client waited for
	// every queued solve ahead of it.
	if res.Overshoot > 5*time.Second || returned.Sub(deadline) > 10*time.Second {
		t.Errorf("deadline overshoot %v (run returned %v past the deadline)",
			res.Overshoot, returned.Sub(deadline))
	}
	// The shed accounting agrees end to end: every client-side shed is an
	// admission shed on the service — or, now that admitted solves cancel
	// cooperatively at the next cycle boundary when the deadline passes, a
	// mid-solve cancellation — and nothing was double-counted.
	m := svc.Metrics()
	if got := m.Shed + m.Cancelled; got != res.Shed {
		t.Errorf("service sheds %d + cancelled %d != client sheds %d",
			m.Shed, m.Cancelled, res.Shed)
	}
}

// TestRunHTTPMode drives the same workload through a serve.Server over
// real sockets (under -race in CI): every request is measured or shed,
// and the server-side completion count matches the client's. serve.Client
// asks for its answers' grids as bytes, so every one of those successes is a
// 200 in the grid framing.
func TestRunHTTPMode(t *testing.T) {
	s := poissonSolver(t)
	dir := t.TempDir()
	if err := s.Save(filepath.Join(dir, "poisson.json")); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Dir: dir, Workers: 2,
		Quotas:     map[string]int{"poisson": 2},
		QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var gridAnswers atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r)
		if w.Header().Get("Content-Type") == "application/x-pbmg-grid" {
			gridAnswers.Add(1)
		}
	}))
	defer hs.Close()

	const total = 32
	res, err := Run(Options{
		URL:      hs.URL,
		Keys:     []pbmg.ServeKey{{Family: pbmg.FamilyPoisson, Dim: 2}},
		ReqN:     []int{9},
		Clients:  8,
		Requests: total,
		Acc:      1e3,
		Dist:     pbmg.Unbiased,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.All) + int(res.Shed); got != total {
		t.Fatalf("measured %d + shed %d, want %d", len(res.All), res.Shed, total)
	}
	if res.Shed != 0 {
		t.Errorf("deep-queue run shed %d requests", res.Shed)
	}
	if got := gridAnswers.Load(); got != total || len(res.All) != total {
		t.Errorf("%d of %d answers were grid-framed, %d measured as successes; want all", got, total, len(res.All))
	}
	cl := serve.Client{BaseURL: hs.URL}
	m, err := cl.Metrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.Completed != total {
		t.Errorf("server completed %d solves, client measured %d", m.Aggregate.Completed, total)
	}
}
