package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pbmg"
)

// noAccept is a transport that drops the Accept header on the way out: the
// server answers in its default framing, JSON, as it answers every client but
// this package's.
type noAccept struct{ http.RoundTripper }

func (t noAccept) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Del("Accept")
	return t.RoundTripper.RoundTrip(r)
}

// jsonOnly is cl's twin that is answered in JSON.
func jsonOnly(cl *Client) *Client {
	return &Client{BaseURL: cl.BaseURL, HTTP: &http.Client{Transport: noAccept{http.DefaultTransport}}}
}

// poisonedContext panics when a solve inside its slot asks for Done, where the
// solve arms its cancellation checks: a request that panics in the solver.
// Like heldContext it relies on where a Service calls Done (pbmg.go's
// solveCtx), and breaks the context contract on purpose.
type poisonedContext struct{ context.Context }

func (poisonedContext) Done() <-chan struct{} { panic("poisoned request") }

// decodeGridBatch reads a grid-framed /v1/batch answer, the oracle of the
// batch writer. Its envelope goes to encoding/json (a scan that declines hands
// it there) and says how many results there are, and so how many grids.
func decodeGridBatch(data []byte, out *BatchResponse) error {
	rest, err := openGridAnswer(data, kindBatch, out, func(*scanner, *BatchResponse) bool { return false })
	if err != nil {
		return err
	}
	for i := range out.Results {
		if out.Results[i].X, rest, err = readGrid(rest); err != nil {
			return err
		}
	}
	return gridsEnd(rest)
}

func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// rawAnswer is one answer as it crossed the wire.
type rawAnswer struct {
	status                        int
	contentType, retryAfter, vary string
	contentLength, bytesOnTheWire int64
	body                          []byte
}

// postRaw posts body with the given Accept header ("" for none).
func postRaw(t *testing.T, url string, body []byte, accept string) rawAnswer {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	h := resp.Header
	return rawAnswer{resp.StatusCode, h.Get("Content-Type"), h.Get("Retry-After"), h.Get("Vary"), resp.ContentLength, int64(len(raw)), raw}
}

func TestAcceptsGrid(t *testing.T) {
	for _, tc := range []struct {
		accept []string
		want   bool
	}{
		{nil, false},
		{[]string{""}, false},
		{[]string{"application/json"}, false},
		{[]string{"*/*"}, false}, // a browser or curl did not ask for bytes
		{[]string{"application/*"}, false},
		{[]string{"application/x-pbmg-grid"}, true},
		{[]string{"application/x-pbmg-grid, application/json"}, true},
		{[]string{"application/json,application/x-pbmg-grid"}, true},
		{[]string{"application/json", "Application/X-PBMG-Grid"}, true},
		{[]string{"text/html, application/x-pbmg-grid ; q=0.5 , */*;q=0.1"}, true},
		{[]string{"application/x-pbmg-grid;q=0"}, false},
		{[]string{"application/x-pbmg-grid; q=0.000, application/json"}, false},
		{[]string{"application/x-pbmg-grid;q=0, application/x-pbmg-grid"}, false}, // the first mention decides
		{[]string{"application/x-pbmg-grid;v=2"}, true},
		{[]string{"application/x-pbmg-gridx", "xapplication/x-pbmg-grid"}, false},
		{[]string{";;;, ,=,application/x-pbmg-grid"}, true},
	} {
		if got := acceptsGrid(http.Header{"Accept": tc.accept}); got != tc.want {
			t.Errorf("Accept %q: grid framing %v, want %v", tc.accept, got, tc.want)
		}
	}
}

// TestFramingsAgree: JSON is the oracle. The same request answered in either
// framing carries the same solution bits and the same envelope, a failing
// batch slot the same error in the same place, and every error class is the
// same status, Retry-After and JSON ErrorResponse whatever was asked for.
func TestFramingsAgree(t *testing.T) {
	srv, cl := startServer(t, Config{
		Workers: 1, Quotas: map[string]int{"poisson": 1, "poisson3d": 1}, QueueDepth: 1,
		Breaker: pbmg.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
	})
	const accept = "application/x-pbmg-grid, application/json"

	both := func(name, path string, body []byte) (jsonAns, gridAns rawAnswer) {
		t.Helper()
		jsonAns, gridAns = postRaw(t, cl.BaseURL+path, body, ""), postRaw(t, cl.BaseURL+path, body, accept)
		for _, a := range []rawAnswer{jsonAns, gridAns} {
			if a.vary != "Accept" || a.contentLength != a.bytesOnTheWire {
				t.Errorf("%s: Vary %q, Content-Length %d on %d bytes; want Vary: Accept and the exact length", name, a.vary, a.contentLength, a.bytesOnTheWire)
			}
		}
		return jsonAns, gridAns
	}

	for _, fam := range []struct {
		family pbmg.Family
		n      int
	}{{pbmg.FamilyPoisson, 17}, {pbmg.FamilyPoisson3D, 9}} {
		for _, sendX := range []bool{true, false} {
			name := fam.family.String() + map[bool]string{true: " with x", false: " zero guess"}[sendX]
			var probs []BatchProblem
			for seed := range 3 {
				p := newProblem(t, fam.family, fam.n, int64(50+seed))
				bp := BatchProblem{B: p.B.Data()}
				if sendX {
					bp.X = p.NewState().Data()
				}
				probs = append(probs, bp)
			}

			solve, _ := json.Marshal(SolveRequest{Family: fam.family.String(), N: fam.n, Accuracy: 1e3, B: probs[0].B, X: probs[0].X})
			ja, ga := both(name, "/v1/solve", solve)
			if ja.status != 200 || ga.status != 200 || ja.contentType != jsonMediaType || ga.contentType != gridMediaType {
				t.Fatalf("%s: solve answered %d %s and %d %s", name, ja.status, ja.contentType, ga.status, ga.contentType)
			}
			var js, gs SolveResponse
			if err := json.Unmarshal(ja.body, &js); err != nil {
				t.Fatal(err)
			}
			if err := decodeGridSolve(ga.body, &gs); err != nil {
				t.Fatal(err)
			}
			if len(js.X) == 0 || !sameFloatBits(js.X, gs.X) {
				t.Errorf("%s: solve: the framings carry different solutions", name)
			}
			if js.Family != gs.Family || js.Eps != gs.Eps || js.N != gs.N || js.Precision != gs.Precision ||
				js.Family == "" || js.N != fam.n || js.Precision == "" || gs.SolveNs <= 0 {
				t.Errorf("%s: solve envelopes differ: JSON %+v, grid %+v", name, js, gs)
			}
			if want := gridHeadLen + int(binary.LittleEndian.Uint32(ga.body[6:])) + 8 + 8*gridPoints(fam.n, fam.family.Dim()); len(ga.body) != want {
				t.Errorf("%s: grid answer is %d bytes, want head + count + 8 per value = %d", name, len(ga.body), want)
			}

			// A batch whose middle problem fails validation, alone.
			probs[1].B = probs[1].B[:5]
			batch, _ := json.Marshal(BatchRequest{Family: fam.family.String(), N: fam.n, Accuracy: 1e3, Problems: probs})
			ja, ga = both(name, "/v1/batch", batch)
			if ja.status != 200 || ga.status != 200 || ja.contentType != jsonMediaType || ga.contentType != gridMediaType {
				t.Fatalf("%s: batch answered %d %s and %d %s", name, ja.status, ja.contentType, ga.status, ga.contentType)
			}
			var jb, gb BatchResponse
			if err := json.Unmarshal(ja.body, &jb); err != nil {
				t.Fatal(err)
			}
			if err := decodeGridBatch(ga.body, &gb); err != nil {
				t.Fatal(err)
			}
			if len(jb.Results) != 3 || len(gb.Results) != 3 {
				t.Fatalf("%s: batch results: %d and %d, want 3", name, len(jb.Results), len(gb.Results))
			}
			for i := range jb.Results {
				j, g := jb.Results[i], gb.Results[i]
				if failed := i == 1; j.Error != g.Error || (j.Error != "") != failed || (len(j.X) == 0) != failed || !sameFloatBits(j.X, g.X) || (g.X == nil) != failed {
					t.Errorf("%s: batch result %d: JSON %d values, error %q; grid %d values, error %q", name, i, len(j.X), j.Error, len(g.X), g.Error)
				}
			}
			jb.Results, gb.Results = nil, nil
			if jb.Family != gb.Family || jb.Eps != gb.Eps || jb.N != gb.N || jb.Precision != gb.Precision || jb.Family == "" {
				t.Errorf("%s: batch envelopes differ: JSON %+v, grid %+v", name, jb, gb)
			}

			// The client reads both, by the answer's Content-Type.
			for _, c := range []*Client{cl, jsonOnly(cl)} {
				sr, err := c.SolveBytes(context.Background(), solve)
				if err != nil || !sameFloatBits(sr.X, js.X) || sr.Family != js.Family || sr.N != js.N {
					t.Errorf("%s: Client.SolveBytes: %v, %+v", name, err, sr)
				}
			}
		}
	}

	// Error classes: whatever the request accepts, the answer is the same
	// status, the same Retry-After and the same JSON body.
	p := newProblem(t, pbmg.FamilyPoisson, 17, 4)
	solveBody := func(req SolveRequest) []byte { b, _ := json.Marshal(req); return b }
	good := SolveRequest{Family: "poisson", N: 17, Accuracy: 1e3, B: p.B.Data()}
	sameError := func(name, path string, body []byte, status int, retryAfter bool, mention string) {
		t.Helper()
		ja, ga := both(name, path, body)
		var je, ge ErrorResponse
		if err := json.Unmarshal(ja.body, &je); err != nil || json.Unmarshal(ga.body, &ge) != nil {
			t.Fatalf("%s: bodies %q and %q are not both JSON ErrorResponses", name, ja.body, ga.body)
		}
		// An open breaker's message counts its cooldown down.
		je.Error, _, _ = strings.Cut(je.Error, ", retry in ")
		ge.Error, _, _ = strings.Cut(ge.Error, ", retry in ")
		if ja.status != status || ga.status != status || ja.contentType != jsonMediaType || ga.contentType != jsonMediaType ||
			ja.retryAfter != ga.retryAfter || (ja.retryAfter != "") != retryAfter || je != ge || !strings.Contains(je.Error, mention) {
			t.Errorf("%s: JSON request: %d %s Retry-After %q %q; grid request: %d %s Retry-After %q %q; want %d mentioning %q",
				name, ja.status, ja.contentType, ja.retryAfter, je.Error, ga.status, ga.contentType, ga.retryAfter, ge.Error, status, mention)
		}
	}
	short := good
	short.B = good.B[:7]
	sameError("wrong length", "/v1/solve", solveBody(short), 400, false, "b has 7 values")
	sameError("NaN in b", "/v1/solve", []byte(`{"family":"poisson","n":17,"accuracy":1e3,"b":[1,NaN]}`), 400, false, "bad request body")
	sameError("overflow in b", "/v1/solve", []byte(`{"family":"poisson","n":17,"accuracy":1e3,"b":[1e999]}`), 400, false, "bad request body")
	unknown := good
	unknown.Family = "helmholtz"
	sameError("unknown family", "/v1/solve", solveBody(unknown), 404, false, "helmholtz")
	sameError("over the cap", "/v1/solve", padded(t, solveBody(good), maxSolveBody(9*9*9)+1), 413, false, "too large")
	sameError("empty batch", "/v1/batch", []byte(`{"family":"poisson","n":17,"accuracy":10,"problems":[]}`), 400, false, "no problems")

	svc := familyService(t, srv, "poisson")
	releaseSlot := occupy(t, svc, 1)
	late := good
	late.DeadlineMs = 20
	sameError("deadline in the queue", "/v1/solve", solveBody(late), 503, true, "deadline")
	releaseQueued := occupy(t, svc, 1)
	sameError("queue full", "/v1/solve", solveBody(good), 429, true, "queue is full")
	sameError("queue full, batch", "/v1/batch", []byte(`{"family":"poisson","n":17,"accuracy":10,"problems":[{"b":[1]}]}`), 429, true, "queue is full")
	releaseSlot()
	releaseQueued()

	// A panicking request: one contained failure opens the breaker.
	svc3 := familyService(t, srv, "poisson3d")
	p3 := newProblem(t, pbmg.FamilyPoisson3D, 9, 4)
	if err := svc3.SolveContext(poisonedContext{context.Background()}, p3.NewState(), p3.B, 1e3); err == nil || svc3.BreakerState() != "open" {
		t.Fatalf("poisoning poisson3d: err = %v, breaker %s", err, svc3.BreakerState())
	}
	sameError("breaker open", "/v1/solve", solveBody(SolveRequest{Family: "poisson3d", N: 9, Accuracy: 1e3, B: p3.B.Data()}), 503, true, "circuit breaker open")

	srv.BeginDrain()
	sameError("draining", "/v1/solve", solveBody(good), 503, true, "draining")
	sameError("draining, batch", "/v1/batch", []byte(`{}`), 503, true, "draining")
}

// countingWriter records how an answer was written and, when it knows the
// arena the answer streams out of, whether each Write found that arena already
// back in arenaPool. It keeps what it takes out of the pool — so the next Get
// digs deeper, and the pool never holds the arena twice — for its user to put
// back.
type countingWriter struct {
	header http.Header
	status int
	writes []int
	body   bytes.Buffer
	arena  *[]float64
	pooled []bool
	taken  []*[]float64
}

func (w *countingWriter) Header() http.Header    { return w.header }
func (w *countingWriter) WriteHeader(status int) { w.status = status }
func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	if w.arena != nil {
		got := arenaPool.Get().(*[]float64)
		w.pooled = append(w.pooled, got == w.arena)
		if got != w.arena {
			w.taken = append(w.taken, got)
		}
	}
	return w.body.Write(p)
}

// gridAnswerBytes frames and streams one answer the way the handlers do.
func gridAnswerBytes(t testing.TB, kind byte, grids [][]float64, envelope func([]byte) ([]byte, error)) *countingWriter {
	t.Helper()
	w := &countingWriter{header: make(http.Header), arena: new([]float64)}
	a := frameAnswer(w, kind, grids, envelope)
	if a.grids == nil {
		t.Fatalf("frameAnswer refused the answer: HTTP %d %s", w.status, w.body.String())
	}
	a.stream(w, w.arena)
	for _, other := range w.taken {
		arenaPool.Put(other)
	}
	return w
}

func solveAnswerBytes(t testing.TB, resp SolveResponse) *countingWriter {
	x := resp.X
	resp.X = []float64{}
	return gridAnswerBytes(t, kindSolve, [][]float64{x}, func(dst []byte) ([]byte, error) { return appendSolveResponse(dst, &resp) })
}

func batchAnswerBytes(t testing.TB, resp BatchResponse) *countingWriter {
	grids := make([][]float64, len(resp.Results))
	resp.Results = slices.Clone(resp.Results)
	for i := range resp.Results {
		grids[i], resp.Results[i].X = resp.Results[i].X, nil
	}
	return gridAnswerBytes(t, kindBatch, grids, func(dst []byte) ([]byte, error) { return appendBatchResponse(dst, &resp) })
}

// TestGridAnswerLayout: the bytes of protocol.go's layout table, and how they
// leave — the N=257 answer of the repo benchmark is its head plus a count and
// 8 bytes per value, under half its JSON text, in one Write for the head and
// one per chunk.
func TestGridAnswerLayout(t *testing.T) {
	w := solveAnswerBytes(t, SolveResponse{X: []float64{1, -2.5, math.SmallestNonzeroFloat64}, Family: "aniso", Eps: 0.5, N: 3, Precision: "f32", SolveNs: 42})
	env := `{"x":[],"family":"aniso","eps":0.5,"n":3,"precision":"f32","solveNs":42}` + "\n"
	want := append([]byte("PBMG\x01\x01"), binary.LittleEndian.AppendUint32(nil, uint32(len(env)))...)
	want = append(want, env...)
	for _, word := range []uint64{3, math.Float64bits(1), math.Float64bits(-2.5), 1} {
		want = binary.LittleEndian.AppendUint64(want, word)
	}
	if !bytes.Equal(w.body.Bytes(), want) {
		t.Errorf("solve answer:\n got %q\nwant %q", w.body.Bytes(), want)
	}

	w = batchAnswerBytes(t, BatchResponse{Results: []BatchResult{{X: []float64{7}}, {Error: "serve: b has 1 values"}}, Family: "poisson", N: 3})
	env = `{"results":[{},{"error":"serve: b has 1 values"}],"family":"poisson","n":3}` + "\n"
	want = append([]byte("PBMG\x01\x02"), binary.LittleEndian.AppendUint32(nil, uint32(len(env)))...)
	want = append(want, env...)
	for _, word := range []uint64{1, math.Float64bits(7), 0} {
		want = binary.LittleEndian.AppendUint64(want, word)
	}
	if !bytes.Equal(w.body.Bytes(), want) {
		t.Errorf("batch answer:\n got %q\nwant %q", w.body.Bytes(), want)
	}

	const points = 257 * 257
	resp := SolveResponse{X: gridLikeFloats(points), Family: "poisson", N: 257, Precision: "f64", SolveNs: 2e6}
	w = solveAnswerBytes(t, resp)
	text, _ := appendSolveResponse(nil, &resp)
	head := w.writes[0]
	if w.status != http.StatusOK || w.header.Get("Content-Type") != gridMediaType || w.header.Get("Content-Length") != strconv.Itoa(w.body.Len()) ||
		w.body.Len() != head+8+8*points || 2*w.body.Len() > len(text) {
		t.Errorf("N=257 answer: HTTP %d %s, Content-Length %s on %d bytes (head %d, JSON text %d)",
			w.status, w.header.Get("Content-Type"), w.header.Get("Content-Length"), w.body.Len(), head, len(text))
	}
	if chunks := (points + chunkValues - 1) / chunkValues; len(w.writes) != 1+chunks || slices.Max(w.writes) > 8*chunkValues {
		t.Errorf("N=257 answer left in %d writes of at most %d bytes, want 1 + %d of at most %d", len(w.writes), slices.Max(w.writes), chunks, 8*chunkValues)
	}
	var back SolveResponse
	if err := decodeGridSolve(w.body.Bytes(), &back); err != nil || !sameFloatBits(back.X, resp.X) {
		t.Errorf("N=257 answer does not read back: %v", err)
	}
	// The arena is the answer's until the last chunk is converted, and back in
	// its pool when that chunk is written (the race detector's sync.Pool drops
	// Puts at random, so there only the first half can be seen).
	last := len(w.pooled) - 1
	if slices.Contains(w.pooled[:last], true) || !(w.pooled[last] || raceBuild()) {
		t.Errorf("N=257 answer: the arena was in its pool at these writes: %v; want at the last one only", w.pooled)
	}

	// Grids that end exactly on a chunk's edge, and one that straddles it.
	edge := BatchResponse{Results: []BatchResult{{X: gridLikeFloats(chunkValues - 1)}, {X: gridLikeFloats(chunkValues)}, {Error: "e"}, {X: gridLikeFloats(3)}}}
	var got BatchResponse
	if err := decodeGridBatch(batchAnswerBytes(t, edge).body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for i, r := range edge.Results {
		if !sameFloatBits(got.Results[i].X, r.X) || got.Results[i].Error != r.Error {
			t.Errorf("chunk-edge batch: result %d came back with %d values, error %q", i, len(got.Results[i].X), got.Results[i].Error)
		}
	}
}

// gridAnswerSeeds are two valid answers: an N=5 solve and a three-result batch
// with one error.
func gridAnswerSeeds(t testing.TB) (solve, batch []byte) {
	solve = solveAnswerBytes(t, SolveResponse{X: gridLikeFloats(25), Family: "poisson", N: 5, Precision: "f64", SolveNs: 9}).body.Bytes()
	batch = batchAnswerBytes(t, BatchResponse{Results: []BatchResult{{X: gridLikeFloats(9)}, {Error: "serve: b has 2 values"}, {X: wireFloats[:9]}},
		Family: "aniso", Eps: 0.25, N: 3, Precision: "mixed"}).body.Bytes()
	return solve, batch
}

// checkGridDecode decodes data as either kind of answer. Whatever data holds,
// the reader returns an error or a value whose grids fit in the bytes behind
// the head (every count is checked before its make), and a value it accepts
// is one the server-side writer frames to the same bytes again.
func checkGridDecode(t testing.TB, data []byte) (solveOK, batchOK bool) {
	var sr SolveResponse
	if err := decodeGridSolve(data, &sr); err == nil {
		solveOK = true
		if 8*cap(sr.X) > len(data) {
			t.Errorf("solve answer of %d bytes decoded into %d values", len(data), cap(sr.X))
		}
		var again SolveResponse
		if err := decodeGridSolve(solveAnswerBytes(t, sr).body.Bytes(), &again); err != nil || !sameFloatBits(again.X, sr.X) ||
			again.Family != sr.Family || again.N != sr.N || again.Precision != sr.Precision || again.SolveNs != sr.SolveNs {
			t.Errorf("accepted solve answer does not survive the writer: %v\n%+v\n%+v", err, sr, again)
		}
	}
	var br BatchResponse
	if err := decodeGridBatch(data, &br); err == nil {
		batchOK = true
		total := 0
		for _, r := range br.Results {
			total += cap(r.X)
		}
		if 8*total > len(data) {
			t.Errorf("batch answer of %d bytes decoded into %d values", len(data), total)
		}
		var again BatchResponse
		err := decodeGridBatch(batchAnswerBytes(t, br).body.Bytes(), &again)
		if err != nil || len(again.Results) != len(br.Results) || again.Family != br.Family || again.N != br.N {
			t.Fatalf("accepted batch answer does not survive the writer: %v", err)
		}
		for i, r := range br.Results {
			if !sameFloatBits(again.Results[i].X, r.X) || again.Results[i].Error != r.Error {
				t.Errorf("accepted batch answer: result %d does not survive the writer", i)
			}
		}
	}
	return solveOK, batchOK
}

// TestDecodeGridAnswerRejects: the reader refuses every proper prefix of a
// valid answer, bytes behind it, the other kind, an unknown version, and
// counts that do not match the bytes.
func TestDecodeGridAnswerRejects(t *testing.T) {
	solve, batch := gridAnswerSeeds(t)
	if s, b := checkGridDecode(t, solve); !s || b {
		t.Errorf("a solve answer read as solve: %v, as batch: %v", s, b)
	}
	if s, b := checkGridDecode(t, batch); s || !b {
		t.Errorf("a batch answer read as solve: %v, as batch: %v", s, b)
	}
	for _, whole := range [][]byte{solve, batch} {
		for cut := range len(whole) {
			if s, b := checkGridDecode(t, whole[:cut]); s || b {
				t.Errorf("the first %d of %d bytes were accepted", cut, len(whole))
			}
		}
		mutate := func(name string, edit func(b []byte) []byte) {
			if s, b := checkGridDecode(t, edit(slices.Clone(whole))); s || b {
				t.Errorf("%s: accepted", name)
			}
		}
		envLen := int(binary.LittleEndian.Uint32(whole[6:]))
		mutate("trailing byte", func(b []byte) []byte { return append(b, 0) })
		mutate("trailing word", func(b []byte) []byte { return append(b, make([]byte, 8)...) })
		mutate("magic", func(b []byte) []byte { b[0] = 'p'; return b })
		mutate("version 0", func(b []byte) []byte { b[4] = 0; return b })
		mutate("version 2", func(b []byte) []byte { b[4] = 2; return b })
		mutate("kind 0", func(b []byte) []byte { b[5] = 0; return b })
		mutate("kind 3", func(b []byte) []byte { b[5] = 3; return b })
		mutate("envelope one short", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[6:], uint32(envLen-1)); return b })
		mutate("envelope past the end", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[6:], math.MaxUint32); return b })
		mutate("envelope not JSON", func(b []byte) []byte { b[gridHeadLen] = '['; return b })
		count := gridHeadLen + envLen
		mutate("count one more", func(b []byte) []byte { b[count]++; return b })
		mutate("count one less", func(b []byte) []byte { b[count]--; return b })
		mutate("count 2^61", func(b []byte) []byte { b[count+7] = 0x20; return b }) // 8·count wraps to the true length
		mutate("count 2^64-1", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[count:], math.MaxUint64); return b })
	}
}

// FuzzDecodeGridAnswer: on any input the client-side reader never panics,
// never allocates more values than the input has bytes for, and accepts only
// what the server-side writer reproduces.
func FuzzDecodeGridAnswer(f *testing.F) {
	solve, batch := gridAnswerSeeds(f)
	for _, whole := range [][]byte{solve, batch} {
		for cut := range len(whole) + 1 {
			f.Add(whole[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkGridDecode(t, data) })
}

// TestGridAnswerHoldsOneChunkAtLastWrite: a client too slow to take the last
// bytes of a grid answer holds up one chunk — not the request's arena (twice
// the answer) and not an answer-sized buffer. The writer below reads the live
// heap inside the first and the final Write, after the two forced collections
// that empty the pools, the way the repo benchmark reads live_heap_mb: between
// the two the arena has gone back, and what the handler still holds in the
// final Write, against the heap once it has returned, is one chunk.
func TestGridAnswerHoldsOneChunkAtLastWrite(t *testing.T) {
	const n = 129
	srv := tunedServer(t, n)
	body, err := json.Marshal(SolveRequest{Family: "poisson", N: n, Accuracy: 1e5, B: newProblem(t, pbmg.FamilyPoisson, n, 5).B.Data()})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	req.Header.Set("Accept", gridMediaType)
	w := &heapWriter{header: make(http.Header)}
	srv.Handler().ServeHTTP(w, req)
	after := int64(liveHeap())
	if w.status != http.StatusOK || w.left != 0 || w.writes < 3 {
		t.Fatalf("HTTP %d in %d writes, %d bytes short of the Content-Length", w.status, w.writes, w.left)
	}
	// The arena holds b and the zero guess, 8 bytes a value each.
	const arena, chunk, slack = 16 * n * n, 8 * chunkValues, 16 << 10
	if back := w.atFirst - w.atLast; back < arena-slack {
		t.Errorf("between the first and the last Write %d bytes were let go, want the arena's %d", back, arena)
	}
	if held := w.atLast - after; held > chunk+slack {
		t.Errorf("%d bytes are held at the last Write, want one chunk of %d and small change", held, chunk)
	}
}

// liveHeap is the bytes of live heap objects once the pools are empty.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapWriter is a ResponseWriter that reads liveHeap inside the first Write
// of an answer and inside the one that completes it, the handler waiting.
type heapWriter struct {
	header          http.Header
	status          int
	left, writes    int
	atFirst, atLast int64
}

func (w *heapWriter) Header() http.Header { return w.header }
func (w *heapWriter) WriteHeader(status int) {
	w.status = status
	w.left, _ = strconv.Atoi(w.header.Get("Content-Length"))
}
func (w *heapWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 1 {
		w.atFirst = int64(liveHeap())
	}
	if w.left -= len(p); w.left == 0 {
		w.atLast = int64(liveHeap())
	}
	return len(p), nil
}
