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
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
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
	grid65 := randomFloats(65*65, 2)

	for name, h := range map[string]http.HandlerFunc{
		"chunked": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.(http.Flusher).Flush() // header out first: the body goes chunked
			w.Write(big)
		},
		// A server that ignores Accept and answers JSON.
		"content-length": func(w http.ResponseWriter, r *http.Request) { writeBody(w, http.StatusOK, big) },
		// One that honours it: the N=65 answer leaves in two chunks.
		"grid": func(w http.ResponseWriter, r *http.Request) {
			if !acceptsGrid(r.Header) {
				t.Errorf("Client asked for %q, want the grid framing", r.Header.Values("Accept"))
			}
			resp := SolveResponse{X: []float64{}, Family: "poisson", N: 65, SolveNs: 1}
			a := frameAnswer(w, kindSolve, [][]float64{grid65}, func(dst []byte) ([]byte, error) { return appendSolveResponse(dst, &resp) })
			a.stream(w, new([]float64))
		},
		// A 200 that is not ours (a proxy's page): an error naming its type,
		// and the body still drained.
		"text/html": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "Text/HTML; charset=utf-8")
			w.(http.Flusher).Flush()
			w.Write(bytes.Repeat([]byte("<p>hello</p>"), 1000))
		},
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
			case name == "text/html":
				if err == nil || !strings.Contains(err.Error(), `"Text/HTML; charset=utf-8"`) {
					t.Fatalf("%s: call %d: err = %v, want one naming the Content-Type", name, i, err)
				}
			case err != nil:
				t.Fatalf("%s: call %d: %v", name, i, err)
			case name == "grid":
				if resp.N != 65 || !sameFloatBits(resp.X, grid65) {
					t.Fatalf("%s: call %d: decoded %d values, n=%d", name, i, len(resp.X), resp.N)
				}
			case len(resp.X) != 257*257 || resp.N != 257:
				t.Fatalf("%s: call %d: decoded %d values, n=%d", name, i, len(resp.X), resp.N)
			}
		}
		if n := opened.Load(); n != 1 {
			t.Errorf("%s: %d sequential calls opened %d connections, want 1", name, calls, n)
		}
	}

	// The real server, every route, one connection.
	srv, err := New(Config{Dir: tablesDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeServer(t, srv) })
	url, opened := countConns(t, srv.Handler())
	cl := &Client{BaseURL: url, HTTP: &http.Client{Transport: &http.Transport{}}}
	p := newProblem(t, pbmg.FamilyPoisson, 17, 7)
	for i := 0; i < calls; i++ {
		if _, err := postSolve(ctx, cl, SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data()}); err != nil {
			t.Fatal(err)
		}
		if _, err := postBatch(ctx, cl, BatchRequest{Family: "poisson", N: 17, Accuracy: 10, Problems: []BatchProblem{{B: p.B.Data()}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := postSolve(ctx, cl, SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: make([]float64, 3)}); err == nil {
			t.Fatal("short b accepted")
		}
		if _, err := getMetrics(ctx, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := postReload(ctx, cl); err != nil {
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
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
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
		encode := func(dst []byte) ([]byte, error) { return appendSolveResponse(dst, &resp) }
		if a := encodeAnswer(rec, encodedSize(2), encode); a.body != nil {
			t.Errorf("encodeAnswer returned %q for an answer JSON cannot carry", *a.body)
		}
		check500("encodeAnswer", rec)

		rec = httptest.NewRecorder()
		if a := frameAnswer(rec, kindSolve, [][]float64{resp.X}, encode); a.grids != nil {
			t.Error("frameAnswer left a grid with a value no framing carries to stream")
		}
		check500("frameAnswer", rec)

		rec = httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]float64{"v": bad})
		check500("writeJSON", rec)
	}

	// A served solve into a dead connection, in either framing: the handler
	// finishes, the solve is counted, the answer's length was known before the
	// status went out, and the pools got their buffers back.
	srv, _ := startServer(t, Config{Workers: 1})
	p := newProblem(t, pbmg.FamilyPoisson, 17, 5)
	body, _ := json.Marshal(SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data()})
	for _, accept := range []string{"", gridMediaType} {
		w := &brokenWriter{header: make(http.Header)}
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		req.Header.Set("Accept", accept)
		srv.Handler().ServeHTTP(w, req)
		if w.status != http.StatusOK || w.header.Get("Content-Length") == "" {
			t.Errorf("solve (Accept %q) into a broken writer: status %d, Content-Length %q", accept, w.status, w.header.Get("Content-Length"))
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m.Aggregate.Completed != 2 || m.ActiveRequests != 0 {
		t.Errorf("metrics after the broken writes: %+v (err %v), want 2 completed and none active", m.Aggregate, err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("/metrics Content-Length %q on a %d-byte body", cl, rec.Body.Len())
	}
}

// TestQueuedRequestKeepsItsGrids: a request's grids alias the arena its body
// was decoded into, so the arena must stay the request's own while it waits
// for a solve slot — its body's buffer does not — and until its answer is
// encoded: wholly, for a JSON answer, and to the last chunk for a grid answer,
// which streams out of it. A solve and a batch in each framing park behind an
// occupied quota while traffic to another family, in both framings, churns the
// pools; every answer must come back to the bit what Solver.Solve makes of the
// same inputs.
func TestQueuedRequestKeepsItsGrids(t *testing.T) {
	srv, cl := startServer(t, Config{Quotas: map[string]int{"poisson": 1, "poisson3d": 2}, QueueDepth: 8})
	framings := map[string]*Client{"grid": cl, "json": jsonOnly(cl)}
	ctx := context.Background()
	svc, svc3 := familyService(t, srv, "poisson"), familyService(t, srv, "poisson3d")

	// Problems 0–2 send their own x; 3 (a solve) and 4 (in the batch) send
	// none, so their iterate is the zero guess carved from the arena after
	// the decoded arrays — the part of it only the handler ever wrote.
	var probs []*pbmg.Problem
	for seed := range 5 {
		probs = append(probs, newProblem(t, pbmg.FamilyPoisson, 17, int64(31+seed)))
	}
	want := make([]*pbmg.Grid, len(probs))
	for i, p := range probs {
		want[i] = p.NewState()
		if i >= 3 {
			want[i] = pbmg.NewGrid(17)
		}
		if err := svc.Solver().Solve(want[i], p.B, 1e3); err != nil {
			t.Fatal(err)
		}
	}
	sameBits := func(name string, got []float64, want *pbmg.Grid) {
		t.Helper()
		if !sameFloatBits(got, want.Data()) {
			t.Errorf("%s: the answer's %d values are not the bits Solver.Solve gives", name, len(got))
		}
	}

	release := occupy(t, svc, 1)
	type parked struct {
		solve, solveZero *SolveResponse
		batch            *BatchResponse
	}
	answers := map[string]*parked{}
	solved := make(chan error, 3*len(framings)) // one send per parked request
	for name, cl := range framings {
		a := new(parked)
		answers[name] = a
		go func() {
			var err error
			a.solve, err = postSolve(ctx, cl, SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: probs[0].B.Data(), X: probs[0].NewState().Data()})
			solved <- err
		}()
		go func() {
			var err error
			a.batch, err = postBatch(ctx, cl, BatchRequest{Family: "poisson", N: 17, Accuracy: 1e3, Problems: []BatchProblem{
				{B: probs[1].B.Data(), X: probs[1].NewState().Data()}, {B: probs[2].B.Data(), X: probs[2].NewState().Data()}, {B: probs[4].B.Data()}}})
			solved <- err
		}()
		go func() {
			var err error
			a.solveZero, err = postSolve(ctx, cl, SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: probs[3].B.Data()})
			solved <- err
		}()
	}
	for svc.Metrics().QueueLen < int64(cap(solved)) { // per framing: the two solves, and the batch's first problem
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
				// Both sides of a parked request's arena: N=9 bodies outgrow
				// it, N=5 bodies fit in it and would overwrite it in place.
				n := 9 - 4*(i%2)
				p := newProblem(t, pbmg.FamilyPoisson3D, n, int64(100+8*g+i))
				want := p.NewState()
				if err := svc3.Solver().Solve(want, p.B, 1e3); err != nil {
					t.Error(err)
					return
				}
				name := []string{"grid", "json"}[(g+i/2)%2]
				resp, err := postSolve(ctx, framings[name], SolveRequest{Family: "poisson3d", N: n, Accuracy: 1e3, B: p.B.Data(), X: p.NewState().Data()})
				if err != nil {
					t.Errorf("poisson3d %s request beside the parked ones: %v", name, err)
					continue
				}
				sameBits("poisson3d "+name+" request beside the parked ones", resp.X, want)
			}
		}()
	}
	churn.Wait()
	release()
	for range cap(solved) {
		if err := <-solved; err != nil {
			t.Fatal(err)
		}
	}
	for name, a := range answers {
		sameBits(name+" solve", a.solve.X, want[0])
		sameBits(name+" zero-guess solve", a.solveZero.X, want[3])
		for i, r := range a.batch.Results {
			if r.Error != "" {
				t.Fatalf("%s batch problem %d: %s", name, i, r.Error)
			}
			sameBits(name+" batch problem "+strconv.Itoa(i), r.X, want[[]int{1, 2, 4}[i]])
		}
	}
}

// FuzzServeSolve: any body, posted to both grid endpoints through the handler
// and answered in either framing. The handler never panics. Its only 5xx are
// the documented ones a body can bring about: 500 for an answer no framing
// carries or a solve that diverged (a finite b can overflow), 503 when the
// body's own deadline cut the solve short. Every answer is as long as its
// Content-Length, every 2xx reads back in the framing its Content-Type names —
// the grid framing only when asked for — and once the handler returns no
// request is active and the request's arena is back in its pool. Admission
// keeps two invariants: a 4xx other than 429 leaves the admitted, shed and
// failed counts as they were (the request was refused before it took a
// slot), and a 503 means admission shed it — requests here come one at a
// time, so only an open breaker or a deadline that passed sheds — or its
// deadline passed while it ran.
func FuzzServeSolve(f *testing.F) {
	// The breaker never opens: a run of diverging bodies must not turn every
	// later answer into a 503 the body did not cause.
	srv, err := New(Config{Dir: tablesDir, Workers: 1, Breaker: pbmg.BreakerConfig{Threshold: math.MaxInt}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { closeServer(f, srv) })
	for _, v := range []any{
		SolveRequest{Family: "poisson", N: 5, Accuracy: 1e3, B: gridLikeFloats(25)},
		SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: gridLikeFloats(289), X: gridLikeFloats(289), DeadlineMs: 1000},
		SolveRequest{Family: "poisson3d", N: 5, Accuracy: 10, B: gridLikeFloats(125)},
		SolveRequest{Family: "poisson", N: 6, Accuracy: 1e3, B: gridLikeFloats(36)},
		SolveRequest{Family: "poisson", N: 5, Accuracy: 1e3, B: gridLikeFloats(25), DeadlineMs: math.MaxInt64 / 1000},
		BatchRequest{Family: "poisson", N: 9, Accuracy: 1e3, Problems: []BatchProblem{{B: gridLikeFloats(81)}, {B: gridLikeFloats(81), X: gridLikeFloats(81)}, {B: []float64{1}}}},
	} {
		body, _ := json.Marshal(v)
		f.Add(body)
	}
	for _, in := range decodeInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/solve", "/v1/batch"} {
			for _, accept := range []string{"", gridMediaType} {
				checkServed(t, srv, path, accept, body)
			}
		}
	})
}

// checkServed posts body to path and checks FuzzServeSolve's invariants.
func checkServed(t *testing.T, srv *Server, path, accept string, body []byte) {
	t.Helper()
	name := path + " (Accept " + strconv.Quote(accept) + ")"
	var rec *httptest.ResponseRecorder
	// sync.Pool is per P: the marker is what the handler gets once this P's
	// private slot is emptied, and what comes back unless the goroutine moved
	// to another P on the way (a preemption does that now and then). A leaked
	// arena misses every time; three misses in a row it takes.
	back := false
	var before, after pbmg.ServiceMetrics
	var took time.Duration
	for try := 0; try < 3 && !back; try++ {
		arenaPool.Get()
		marker := new([]float64)
		arenaPool.Put(marker)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec = httptest.NewRecorder()
		before = admissionCounts(srv)
		start := time.Now()
		srv.Handler().ServeHTTP(rec, req)
		took = time.Since(start)
		after = admissionCounts(srv)
		if n := srv.active.Load(); n != 0 {
			t.Fatalf("%s: %d requests active after the handler returned", name, n)
		}
		for range 4 { // the handler's Put may have gone to the shared queue
			if back = arenaPool.Get() == marker; back {
				break
			}
		}
	}
	if !back && !raceBuild() { // the race detector's sync.Pool drops Puts at random
		t.Fatalf("%s: the request's arena is not back in its pool", name)
	}
	ct, answer := rec.Header().Get("Content-Type"), rec.Body.Bytes()
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(answer)) {
		t.Fatalf("%s: Content-Length %q on a %d-byte answer", name, cl, len(answer))
	}
	if rec.Code >= 500 {
		var er ErrorResponse
		_ = json.Unmarshal(answer, &er)
		documented := rec.Code == http.StatusInternalServerError &&
			(strings.HasPrefix(er.Error, "serve: encoding answer: ") || strings.Contains(er.Error, pbmg.ErrDiverged.Error())) ||
			rec.Code == http.StatusServiceUnavailable && (after.Shed != before.Shed || strings.Contains(er.Error, pbmg.ErrCancelled.Error()))
		if !documented {
			t.Fatalf("%s: HTTP %d %s for body %q", name, rec.Code, answer, body)
		}
	}
	if rec.Code/100 == 4 && rec.Code != http.StatusTooManyRequests &&
		(after.Admitted != before.Admitted || after.Shed != before.Shed || after.Failed != before.Failed) {
		t.Fatalf("%s: HTTP %d moved admission: admitted %d → %d, shed %d → %d, failed %d → %d, for body %q",
			name, rec.Code, before.Admitted, after.Admitted, before.Shed, after.Shed, before.Failed, after.Failed, body)
	}
	// Requests come one at a time: past an open breaker, only a deadline
	// that passed sheds or cancels one.
	if rec.Code == http.StatusServiceUnavailable && after.BreakerShed == before.BreakerShed {
		var d struct {
			DeadlineMs int64 `json:"deadlineMs"`
		}
		_ = json.Unmarshal(body, &d)
		deadline := srv.cfg.MaxWait.Milliseconds()
		if d.DeadlineMs > 0 {
			deadline = d.DeadlineMs
		}
		if took.Milliseconds() < deadline {
			t.Fatalf("%s: HTTP 503 %s after %v, before the %d ms deadline passed, for body %q", name, answer, took, deadline, body)
		}
	}
	if rec.Code/100 != 2 {
		return
	}
	var err error
	switch {
	case ct == gridMediaType && accept == gridMediaType && path == "/v1/solve":
		err = decodeGridSolve(answer, new(SolveResponse))
	case ct == gridMediaType && accept == gridMediaType:
		err = decodeGridBatch(answer, new(BatchResponse))
	case ct == jsonMediaType && accept == "" && path == "/v1/solve":
		err = json.Unmarshal(answer, new(SolveResponse))
	case ct == jsonMediaType && accept == "":
		err = json.Unmarshal(answer, new(BatchResponse))
	default:
		err = errors.New("answered as " + ct)
	}
	if err != nil {
		t.Fatalf("%s: HTTP %d does not read back: %v", name, rec.Code, err)
	}
}

// admissionCounts sums the admission counters of the families srv serves.
func admissionCounts(srv *Server) pbmg.ServiceMetrics {
	c := srv.acquireCatalog()
	defer c.release()
	return c.reg.Metrics().Aggregate
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" })
}

// tunedServer serves a poisson table tuned up to side n on one worker, for
// the tests that need grids larger than tablesDir's.
func tunedServer(t *testing.T, n int) *Server {
	t.Helper()
	dir := t.TempDir()
	s, err := pbmg.Tune(pbmg.Options{MaxSize: n, Machine: "intel-harpertown", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Save(filepath.Join(dir, "poisson.json"))
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeServer(t, srv) })
	return srv
}

// discardWriter is a ResponseWriter that keeps nothing of the answer, so what
// a request allocates around it is the handler's own.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header    { return w.header }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestZeroGuessSolveAllocatesNoGrid: a /v1/solve that sends no x starts from
// zeros carved out of the request's pooled arena, the solve runs in pooled
// scratch, and the answer is encoded into a pooled buffer — so in steady
// state the handler allocates no float storage at all, only the request's
// small fixed envelope (context, header values, grid headers). At N=65 one
// grid is 33 KiB; the bound is a fraction of it.
func TestZeroGuessSolveAllocatesNoGrid(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, so pooled buffers miss by design")
	}
	const n, bound = 65, 4 << 10
	srv := tunedServer(t, n)

	body, err := json.Marshal(SolveRequest{Family: "poisson", N: n, Accuracy: 1e5, B: newProblem(t, pbmg.FamilyPoisson, n, 5).B.Data()})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/solve", io.NopCloser(rd))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	w := &discardWriter{header: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		clear(w.header)
		srv.Handler().ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("HTTP %d", w.status)
		}
	}
	serve()
	serve()

	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pools mid-measurement
	// TotalAlloc is the whole process's, and other tests' servers leave
	// goroutines that allocate now and then: their noise only adds, so the
	// smallest of a few batches is the handler's own.
	const batches, rounds = 5, 10
	per := uint64(math.MaxUint64)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			serve()
		}
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/rounds)
	}
	if per >= bound {
		t.Errorf("a zero-guess N=%d solve allocates %d bytes per request in the handler, want < %d (one grid is %d)", n, per, bound, 8*n*n)
	}
}

// TestBatchZeroGuessesGrowArenaOnce: on a cold arena — sized by the decode to
// what the body carried — the zero guesses of a whole batch cost one growth,
// to the decoded values plus the zeros, and every guess is a piece of that
// one arena. (Growing per problem would leave each earlier guess holding an
// earlier, almost as large arena alive: quadratic in the problem count.)
func TestBatchZeroGuessesGrowArenaOnce(t *testing.T) {
	const k, n = 16, 33 * 33
	arena := new([]float64)
	*arena = make([]float64, k*n) // as decodeWire leaves it: full, nothing spare
	probs := make([]BatchProblem, k)
	for i := range probs {
		probs[i].B = (*arena)[i*n : (i+1)*n : (i+1)*n]
	}
	probs[3].X = make([]float64, n) // sends its own iterate: no guess
	probs[5].B = probs[5].B[:n-1]   // fails validation later; its guess is as short
	decoded, zeros := k*n, (k-1)*n-1

	guesses := zeroGuesses(arena, probs)
	if len(*arena) != decoded+zeros || cap(*arena) > decoded+zeros+1024 { // make rounds large sizes up to a page
		t.Fatalf("arena has len %d cap %d after the carve, want %d and no more than a page over", len(*arena), cap(*arena), decoded+zeros)
	}
	at := decoded
	for i, g := range guesses {
		if len(probs[i].X) != 0 {
			if g != nil {
				t.Errorf("problem %d sent x and got a guess of %d values", i, len(g))
			}
			continue
		}
		if len(g) != len(probs[i].B) || cap(g) != len(g) || &g[0] != &(*arena)[at] {
			t.Fatalf("guess %d: len %d cap %d, want %d values of the final arena at %d", i, len(g), cap(g), len(probs[i].B), at)
		}
		if j := slices.IndexFunc(g, func(v float64) bool { return v != 0 }); j >= 0 {
			t.Errorf("guess %d[%d] = %g, want 0", i, j, g[j])
		}
		at += len(g)
	}

	// Warm, the same batch fits: the storage stays, and what the last request
	// left in it is cleared.
	warm := &(*arena)[0]
	for i := range (*arena)[decoded:] {
		(*arena)[decoded+i] = 1
	}
	*arena = (*arena)[:decoded]
	guesses = zeroGuesses(arena, probs)
	if &(*arena)[0] != warm {
		t.Error("a warm arena was replaced")
	}
	if slices.Contains((*arena)[decoded:], 1) || &guesses[0][0] != &(*arena)[decoded] {
		t.Error("a warm arena's guesses are not zeros of that arena")
	}
}
