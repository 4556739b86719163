package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbmg"
)

// countConns serves h on a real listener and counts the TCP connections
// clients open to it.
func countConns(t *testing.T, h http.Handler) (url string, opened *atomic.Int64) {
	t.Helper()
	opened = new(atomic.Int64)
	hs := httptest.NewUnstartedServer(h)
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)
	return hs.URL, opened
}

// TestClientReusesConnection: sequential calls share one keep-alive
// connection whatever the answer's size, framing or status. Before the
// client drained bodies, every answer over bufio's 4 KB (sent chunked, the
// decoder stopping short of the terminating chunk) cost a new connection.
func TestClientReusesConnection(t *testing.T) {
	const calls = 20
	big, err := appendSolveResponse(nil, &SolveResponse{X: randomFloats(257*257, 1), Family: "poisson", N: 257, SolveNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) < 1<<20 {
		t.Fatalf("test answer is %d bytes, want at least 1 MB", len(big))
	}
	ctx := context.Background()

	for name, h := range map[string]http.HandlerFunc{
		"chunked": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.(http.Flusher).Flush() // header out first: the body goes chunked
			w.Write(big)
		},
		"content-length": func(w http.ResponseWriter, r *http.Request) { writeBody(w, http.StatusOK, big) },
		"error answers": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.(http.Flusher).Flush()
			json.NewEncoder(w).Encode(ErrorResponse{Error: strings.Repeat("queue full ", 1000)})
		},
	} {
		url, opened := countConns(t, h)
		cl := &Client{BaseURL: url, HTTP: &http.Client{Transport: &http.Transport{}}}
		for i := 0; i < calls; i++ {
			resp, err := cl.SolveBytes(ctx, []byte(`{}`))
			var se *StatusError
			switch {
			case name == "error answers":
				if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter != 1 || !strings.HasPrefix(se.Msg, "queue full") {
					t.Fatalf("%s: call %d: err = %v", name, i, err)
				}
			case err != nil:
				t.Fatalf("%s: call %d: %v", name, i, err)
			case len(resp.X) != 257*257 || resp.N != 257:
				t.Fatalf("%s: call %d: decoded %d values, n=%d", name, i, len(resp.X), resp.N)
			}
		}
		if n := opened.Load(); n != 1 {
			t.Errorf("%s: %d sequential calls opened %d connections, want 1", name, calls, n)
		}
	}

	// The real server, every client method, one connection.
	srv, err := New(Config{Dir: tablesDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	url, opened := countConns(t, srv.Handler())
	cl := &Client{BaseURL: url, HTTP: &http.Client{Transport: &http.Transport{}}}
	p := newProblem(t, pbmg.FamilyPoisson, 17, 7)
	for i := 0; i < calls; i++ {
		if _, err := cl.Solve(ctx, SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data()}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Batch(ctx, BatchRequest{Family: "poisson", N: 17, Accuracy: 10, Problems: []BatchProblem{{B: p.B.Data()}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Solve(ctx, SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: make([]float64, 3)}); err == nil {
			t.Fatal("short b accepted")
		}
		if _, err := cl.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Reload(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("real server: %d rounds of solve/batch/400/metrics/reload opened %d connections, want 1", calls, n)
	}
}

// padded returns body followed by whitespace up to exactly size bytes: still
// the same JSON value.
func padded(t *testing.T, body []byte, size int64) []byte {
	t.Helper()
	if int64(len(body)) > size {
		t.Fatalf("body of %d bytes does not fit %d", len(body), size)
	}
	return append(body, bytes.Repeat([]byte{' '}, int(size)-len(body))...)
}

// readCounter counts the bytes a handler pulled out of a request body.
type readCounter struct {
	r io.Reader
	n int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestBodyCap: solve and batch bodies are capped at the text of the largest
// grid the catalog serves; one byte more is a 413 with the JSON error body,
// announced (Content-Length) or not (chunked), and a body exactly at the cap
// is served.
func TestBodyCap(t *testing.T) {
	srv, cl := startServer(t, Config{Workers: 1})
	// tablesDir serves poisson N≤17 (289 points) and poisson3d N≤9 (729).
	solveCap := maxSolveBody(9 * 9 * 9)
	if c := srv.acquireCatalog(); c.maxBody != solveCap {
		t.Fatalf("catalog body cap = %d, want %d", c.maxBody, solveCap)
	} else {
		c.release()
	}
	p := newProblem(t, pbmg.FamilyPoisson, 17, 3)
	solveBody, _ := json.Marshal(SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data()})
	batchBody, _ := json.Marshal(BatchRequest{Family: "poisson", N: 17, Accuracy: 1e3, Problems: []BatchProblem{{B: p.B.Data()}}})

	for _, tc := range []struct {
		path string
		body []byte
		cap  int64
	}{
		{"/v1/solve", solveBody, solveCap},
		{"/v1/batch", batchBody, batchBodyFactor * solveCap},
	} {
		for _, chunked := range []bool{false, true} {
			for _, over := range []int64{0, 1} {
				body := padded(t, tc.body, tc.cap+over)
				var rd io.Reader = bytes.NewReader(body)
				if chunked {
					rd = struct{ io.Reader }{rd} // length unknown to net/http
				}
				resp, err := http.Post(cl.BaseURL+tc.path, "application/json", rd)
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				want := http.StatusOK
				if over > 0 {
					want = http.StatusRequestEntityTooLarge
				}
				if resp.StatusCode != want {
					t.Errorf("%s chunked=%v cap%+d: HTTP %d, want %d (%.120s)", tc.path, chunked, over, resp.StatusCode, want, raw)
					continue
				}
				if over > 0 {
					var er ErrorResponse
					if err := json.Unmarshal(raw, &er); err != nil || !strings.Contains(er.Error, "too large") {
						t.Errorf("%s chunked=%v: 413 body = %q, want the JSON ErrorResponse", tc.path, chunked, raw)
					}
				}
			}
		}
	}

	// A 413 is the client's fault, not load shedding.
	_, err := cl.SolveBytes(context.Background(), padded(t, solveBody, solveCap+1))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge || se.Shed() {
		t.Errorf("oversize solve through the client: err = %v, want a non-shed HTTP 413", err)
	}

	// An announced oversize body is refused on its Content-Length alone:
	// nothing is read, so nothing is allocated for it.
	body := &readCounter{r: bytes.NewReader(solveBody)}
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", body)
	req.ContentLength = 1 << 40
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || body.n != 0 {
		t.Errorf("Content-Length 1<<40: HTTP %d after reading %d bytes, want 413 after reading none", rec.Code, body.n)
	}
}

// brokenWriter is a ResponseWriter whose client has gone away.
type brokenWriter struct {
	header http.Header
	status int
}

func (w *brokenWriter) Header() http.Header       { return w.header }
func (w *brokenWriter) WriteHeader(status int)    { w.status = status }
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestAnswerEncodedBeforeStatus: the status is committed only once the whole
// answer exists, so an answer that cannot be encoded is a 500 with the JSON
// error body (it used to be an empty 200), and a client that vanished before
// the write costs nothing but the write.
func TestAnswerEncodedBeforeStatus(t *testing.T) {
	check500 := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		var er ErrorResponse
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &er) != nil ||
			!strings.Contains(er.Error, "unsupported value") {
			t.Errorf("%s: HTTP %d %q, want 500 naming the unsupported value", name, rec.Code, rec.Body.String())
		}
		if cl := rec.Header().Get("Content-Length"); cl != "" && cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %s on a %d-byte body", name, cl, rec.Body.Len())
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := SolveResponse{X: []float64{1, bad}, Family: "poisson", N: 3}
		rec := httptest.NewRecorder()
		writeAnswer(rec, encodedSize(2), func(dst []byte) ([]byte, error) { return appendSolveResponse(dst, &resp) })
		check500("writeAnswer", rec)

		rec = httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]float64{"v": bad})
		check500("writeJSON", rec)
	}

	// A served solve into a dead connection: the handler finishes, the solve
	// is counted, and the answer was complete before the status went out.
	srv, _ := startServer(t, Config{Workers: 1})
	p := newProblem(t, pbmg.FamilyPoisson, 17, 5)
	body, _ := json.Marshal(SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data()})
	w := &brokenWriter{header: make(http.Header)}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if w.status != http.StatusOK || w.header.Get("Content-Length") == "" {
		t.Errorf("solve into a broken writer: status %d, Content-Length %q", w.status, w.header.Get("Content-Length"))
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m.Aggregate.Completed != 1 || m.ActiveRequests != 0 {
		t.Errorf("metrics after the broken write: %+v (err %v), want 1 completed and none active", m.Aggregate, err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("/metrics Content-Length %q on a %d-byte body", cl, rec.Body.Len())
	}
}

// TestQueuedRequestKeepsItsGrids: a request's grids alias the arena its body
// was decoded into, so the arena must stay the request's own while it waits
// for a solve slot — its body's buffer does not — and until its answer is
// written. A solve and a batch park behind an occupied quota while traffic to
// another family churns both pools; their answers must come back to the bit
// what Solver.Solve makes of the same inputs.
func TestQueuedRequestKeepsItsGrids(t *testing.T) {
	srv, cl := startServer(t, Config{Quotas: map[string]int{"poisson": 1, "poisson3d": 2}, QueueDepth: 4})
	ctx := context.Background()
	svc := familyService(t, srv, "poisson")

	probs := []*pbmg.Problem{newProblem(t, pbmg.FamilyPoisson, 17, 31), newProblem(t, pbmg.FamilyPoisson, 17, 32), newProblem(t, pbmg.FamilyPoisson, 17, 33)}
	want := make([]*pbmg.Grid, len(probs))
	for i, p := range probs {
		want[i] = p.NewState()
		if err := svc.Solver().Solve(want[i], p.B, 1e3); err != nil {
			t.Fatal(err)
		}
	}
	sameBits := func(name string, got []float64, want *pbmg.Grid) {
		t.Helper()
		if len(got) != len(want.Data()) {
			t.Fatalf("%s: %d values, want %d", name, len(got), len(want.Data()))
		}
		for i, v := range want.Data() {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Fatalf("%s: x[%d] = %v, Solver.Solve gives %v", name, i, got[i], v)
			}
		}
	}

	release := occupy(t, svc, 1)
	solved := make(chan error, 2) // one send per parked request
	var solve *SolveResponse
	var batch *BatchResponse
	go func() {
		var err error
		solve, err = cl.Solve(ctx, SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: probs[0].B.Data(), X: probs[0].NewState().Data()})
		solved <- err
	}()
	go func() {
		var err error
		batch, err = cl.Batch(ctx, BatchRequest{Family: "poisson", N: 17, Accuracy: 1e3, Problems: []BatchProblem{
			{B: probs[1].B.Data(), X: probs[1].NewState().Data()}, {B: probs[2].B.Data(), X: probs[2].NewState().Data()}}})
		solved <- err
	}()
	for svc.Metrics().QueueLen < 2 { // the solve, and the batch's first problem
		select {
		case err := <-solved:
			t.Fatalf("a request finished behind an occupied quota: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	var churn sync.WaitGroup
	for g := range 4 {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := range 8 {
				p := newProblem(t, pbmg.FamilyPoisson3D, 9, int64(100+8*g+i))
				if _, err := cl.Solve(ctx, SolveRequest{Family: "poisson3d", N: 9, Accuracy: 1e3, B: p.B.Data(), X: p.NewState().Data()}); err != nil {
					t.Errorf("poisson3d request beside the parked ones: %v", err)
				}
			}
		}()
	}
	churn.Wait()
	release()
	for range 2 {
		if err := <-solved; err != nil {
			t.Fatal(err)
		}
	}
	sameBits("solve", solve.X, want[0])
	for i, r := range batch.Results {
		if r.Error != "" {
			t.Fatalf("batch problem %d: %s", i, r.Error)
		}
		sameBits("batch problem "+strconv.Itoa(i), r.X, want[1+i])
	}
}
