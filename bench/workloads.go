package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"pbmg"
	"pbmg/serve"
)

// element is one request of an op: one (family, N, accuracy) solve, or one
// batch of several same-sized problems. The op is a fixed sequence of
// elements, so every op of a workload does identical work.
type element struct {
	family pbmg.Family
	n      int
	acc    float64
	probs  []*pbmg.Problem // one for a solve, several for a batch
	batch  bool
	// sendX ships the state grid in the serve request too, so a problem with
	// a non-zero boundary reaches the handler and HTTP rungs unchanged.
	sendX bool
	// body is the pre-marshalled serve request. The serve workloads build it
	// in set-up; the in-process ones only need it on the ladder.
	body []byte
	// want caches the serial in-process solutions the grader compares
	// against.
	want [][]float64
}

func (e *element) path() string {
	if e.batch {
		return "/v1/batch"
	}
	return "/v1/solve"
}

func (e *element) points() int {
	pts := e.n * e.n
	if e.family.Dim() == 3 {
		pts *= e.n
	}
	return pts
}

// execFunc runs one element through a workload's own entry point for client
// c, with the cheap checks only (nil error / 200 / length). With want set it
// also returns the solutions, one per problem, for grading.
type execFunc func(c int, e *element, want bool) ([][]float64, error)

// instance is a workload after set-up: the live serving object behind exec
// and the seeded requests.
type instance struct {
	distinct []*element // every distinct element, for grading
	op       []*element // the op's request sequence
	exec     execFunc
	close    func()
	// serverMetrics reads GET /metrics of the workload's own server; nil for
	// the in-process workloads.
	serverMetrics func() (*serve.Metrics, error)
	// solvers are the workload's live solvers where they can be reached from
	// outside (scratch and escalation gauges).
	solvers []*pbmg.Solver
}

// env is what set-up works from.
type env struct {
	spec  *workloadSpec
	seed  int64
	dir   string             // this run's tuned-table directory
	tuneS map[string]float64 // tuning wall seconds per family
}

func (ev *env) tablePath(f pbmg.Family) string {
	return filepath.Join(ev.dir, f.String()+".json")
}

func tuneOptions(fs familySpec) pbmg.Options {
	return pbmg.Options{Family: fs.family, MaxSize: fs.maxSize, Machine: tuneMachine, Seed: tuneSeed}
}

// tuneToDir tunes every family of the workload serially and saves the tables
// into the run's directory, the layout serve and Registry.LoadDir read.
func (ev *env) tuneToDir() error {
	for _, fs := range ev.spec.families {
		t0 := time.Now()
		s, err := pbmg.Tune(tuneOptions(fs))
		if err != nil {
			return fmt.Errorf("tune %s: %w", fs.family, err)
		}
		ev.tuneS[fs.family.String()] = time.Since(t0).Seconds()
		err = s.Save(ev.tablePath(fs.family))
		s.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// drawProblem draws the seeded problem instance and attaches its reference
// solution. Serve requests that carry no state grid are solved from a zero
// boundary, so those problems get theirs zeroed before the reference.
func drawProblem(f pbmg.Family, n int, seed int64, zeroBoundary bool) (*pbmg.Problem, error) {
	p, err := pbmg.NewFamilyProblem(n, pbmg.Unbiased, seed, f, 0)
	if err != nil {
		return nil, err
	}
	if zeroBoundary {
		p.Boundary.Zero()
	}
	pbmg.Reference(p)
	return p, nil
}

// marshalBody pre-marshals the element's serve request, once.
func (e *element) marshalBody() error {
	if e.body != nil {
		return nil
	}
	var v any
	if e.batch {
		req := serve.BatchRequest{Family: e.family.String(), N: e.n, Accuracy: e.acc}
		for _, p := range e.probs {
			bp := serve.BatchProblem{B: p.B.Data()}
			if e.sendX {
				bp.X = p.Boundary.Data()
			}
			req.Problems = append(req.Problems, bp)
		}
		v = req
	} else {
		req := serve.SolveRequest{Family: e.family.String(), N: e.n, Accuracy: e.acc, B: e.probs[0].B.Data()}
		if e.sendX {
			req.X = e.probs[0].Boundary.Data()
		}
		v = req
	}
	body, err := json.Marshal(v)
	e.body = body
	return err
}

// decodeSolutions extracts the solution grids from a 200 answer to e and
// checks their count and lengths.
func decodeSolutions(e *element, body []byte) ([][]float64, error) {
	var out [][]float64
	if e.batch {
		var resp serve.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		for i, r := range resp.Results {
			if r.Error != "" {
				return nil, fmt.Errorf("batch problem %d: %s", i, r.Error)
			}
			out = append(out, r.X)
		}
	} else {
		var resp serve.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		out = [][]float64{resp.X}
	}
	return out, checkLengths(e, out)
}

func checkLengths(e *element, xs [][]float64) error {
	if len(xs) != len(e.probs) {
		return fmt.Errorf("%s n=%d: %d solutions for %d problems", e.family, e.n, len(xs), len(e.probs))
	}
	for _, x := range xs {
		if len(x) != e.points() {
			return fmt.Errorf("%s n=%d: solution has %d values, want %d", e.family, e.n, len(x), e.points())
		}
	}
	return nil
}

// inProcessExec is the execFunc of the workloads that call solvers directly.
// Every client solves into its own pre-allocated state grids, so the harness
// adds one boundary copy per solve and no allocation.
func inProcessExec(clients int, distinct []*element, solve func(e *element, x, b *pbmg.Grid) error) execFunc {
	states := make([]map[*pbmg.Problem]*pbmg.Grid, clients)
	for c := range states {
		states[c] = make(map[*pbmg.Problem]*pbmg.Grid)
		for _, e := range distinct {
			for _, p := range e.probs {
				states[c][p] = p.NewState()
			}
		}
	}
	return func(c int, e *element, want bool) ([][]float64, error) {
		var out [][]float64
		for _, p := range e.probs {
			x := states[c][p]
			x.CopyFrom(p.Boundary)
			if err := solve(e, x, p.B); err != nil {
				return nil, err
			}
			if want {
				out = append(out, append([]float64(nil), x.Data()...))
			}
		}
		return out, nil
	}
}

// handlerExec dispatches straight into an http.Handler on a recorder: the
// whole serve path without sockets.
func handlerExec(h http.Handler) execFunc {
	return func(_ int, e *element, want bool) ([][]float64, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, e.path(), bytes.NewReader(e.body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: HTTP %d: %.200s", e.path(), rec.Code, rec.Body.String())
		}
		if !want {
			// A JSON number and its comma take at least two bytes.
			if min := 2 * e.points() * len(e.probs); rec.Body.Len() < min {
				return nil, fmt.Errorf("%s: %d-byte answer, want at least %d", e.path(), rec.Body.Len(), min)
			}
			return nil, nil
		}
		return decodeSolutions(e, rec.Body.Bytes())
	}
}

// loopback is an in-process http.Server on 127.0.0.1:0 and a client that
// talks to it over one keep-alive connection.
type loopback struct {
	hs     *http.Server
	done   chan struct{}
	client *serve.Client
}

func newLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	lb.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}}
	return lb, nil
}

// post sends a pre-marshalled body and returns the raw 200 answer.
func (lb *loopback) post(path string, body []byte) ([]byte, error) {
	resp, err := lb.client.HTTP.Post(lb.client.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", path, resp.StatusCode, buf.String())
	}
	return buf.Bytes(), nil
}

func (lb *loopback) close() {
	lb.client.HTTP.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = lb.hs.Shutdown(ctx)
	<-lb.done
}

// newServer loads the run's tables into a serve.Server configured for the
// workload.
func (ev *env) newServer() (*serve.Server, error) {
	return serve.New(serve.Config{
		Dir:         ev.dir,
		Workers:     ev.spec.workers,
		MaxInFlight: ev.spec.maxInFlight,
		Quotas:      ev.spec.quotas,
	})
}

func closeServer(srv *serve.Server) {
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Drain(ctx)
	srv.Close()
}

// handlerMetrics reads GET /metrics through the handler.
func handlerMetrics(h http.Handler) func() (*serve.Metrics, error) {
	return func() (*serve.Metrics, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("/metrics: HTTP %d", rec.Code)
		}
		var m serve.Metrics
		err := json.Unmarshal(rec.Body.Bytes(), &m)
		return &m, err
	}
}

// setupSolve2D: tune, save, load back, and call Solver.Solve directly on one
// pre-drawn finest-grid problem at the three accuracies back to back.
func setupSolve2D(ev *env) (*instance, error) {
	if err := ev.tuneToDir(); err != nil {
		return nil, err
	}
	fs := ev.spec.families[0]
	s, err := pbmg.Load(ev.tablePath(fs.family), 0)
	if err != nil {
		return nil, err
	}
	p, err := drawProblem(fs.family, fs.maxSize, ev.seed, false)
	if err != nil {
		return nil, err
	}
	inst := &instance{close: s.Close, solvers: []*pbmg.Solver{s}}
	for _, acc := range accuracies {
		inst.distinct = append(inst.distinct,
			&element{family: fs.family, n: fs.maxSize, acc: acc, probs: []*pbmg.Problem{p}, sendX: true})
	}
	inst.op = inst.distinct
	inst.exec = inProcessExec(ev.spec.clients, inst.distinct, func(e *element, x, b *pbmg.Grid) error {
		return s.Solve(x, b, e.acc)
	})
	return inst, nil
}

// setupFamiliesRegistry: one Registry serves both families from the saved
// tables; the op solves one finest-grid problem of each family at each
// accuracy through Registry.Solve. The registry is serial: on a 2-core VM a
// 2-worker pool flips between a mode as fast as serial and one twice as slow
// for seconds at a time (its join sleeps, and wake-ups cross vCPUs), so no
// end-to-end number of a pooled run repeats. What the pool does to a kernel
// and to a whole solve is reported by the sched.* per-layer metrics instead.
func setupFamiliesRegistry(ev *env) (*instance, error) {
	if err := ev.tuneToDir(); err != nil {
		return nil, err
	}
	reg := pbmg.NewRegistry(pbmg.RegistryOptions{Workers: ev.spec.workers, MaxInFlight: ev.spec.maxInFlight})
	inst := &instance{close: reg.Close}
	services, err := reg.LoadDir(ev.dir)
	if err != nil {
		reg.Close()
		return nil, err
	}
	for _, svc := range services {
		inst.solvers = append(inst.solvers, svc.Solver())
	}
	probs := make([]*pbmg.Problem, len(ev.spec.families))
	for i, fs := range ev.spec.families {
		if probs[i], err = drawProblem(fs.family, fs.maxSize, ev.seed+int64(i), false); err != nil {
			reg.Close()
			return nil, err
		}
	}
	for _, acc := range accuracies {
		for i, fs := range ev.spec.families {
			inst.distinct = append(inst.distinct,
				&element{family: fs.family, n: fs.maxSize, acc: acc, probs: []*pbmg.Problem{probs[i]}, sendX: true})
		}
	}
	inst.op = inst.distinct
	inst.exec = inProcessExec(ev.spec.clients, inst.distinct, func(e *element, x, b *pbmg.Grid) error {
		return reg.Solve(e.family, 0, x, b, e.acc)
	})
	return inst, nil
}

// setupHTTPLargeGrid: serve.Server behind an in-process http.Server; the op
// is one POST /v1/solve of a finest-grid problem over a keep-alive loopback
// connection, decoded by serve.Client.
func setupHTTPLargeGrid(ev *env) (*instance, error) {
	if err := ev.tuneToDir(); err != nil {
		return nil, err
	}
	srv, err := ev.newServer()
	if err != nil {
		return nil, err
	}
	lb, err := newLoopback(srv.Handler())
	if err != nil {
		closeServer(srv)
		return nil, err
	}
	inst := &instance{
		close:         func() { lb.close(); closeServer(srv) },
		serverMetrics: handlerMetrics(srv.Handler()),
	}
	fs := ev.spec.families[0]
	p, err := drawProblem(fs.family, fs.maxSize, ev.seed, true)
	if err != nil {
		inst.close()
		return nil, err
	}
	e := &element{family: fs.family, n: fs.maxSize, acc: 1e5, probs: []*pbmg.Problem{p}}
	if err := e.marshalBody(); err != nil {
		inst.close()
		return nil, err
	}
	inst.distinct = []*element{e}
	inst.op = inst.distinct
	inst.exec = func(_ int, e *element, _ bool) ([][]float64, error) {
		resp, err := lb.client.SolveBytes(context.Background(), e.body)
		if err != nil {
			return nil, err
		}
		out := [][]float64{resp.X}
		return out, checkLengths(e, out)
	}
	return inst, nil
}

// setupHandlerSmallMixed: two small families behind serve with per-family
// quotas; the op is 32 tiny /v1/solve requests over every (family, N,
// accuracy) combination in a seeded order plus one 8-problem /v1/batch, each
// dispatched into the handler on a recorder.
func setupHandlerSmallMixed(ev *env) (*instance, error) {
	if err := ev.tuneToDir(); err != nil {
		return nil, err
	}
	srv, err := ev.newServer()
	if err != nil {
		return nil, err
	}
	inst := &instance{
		close:         func() { closeServer(srv) },
		serverMetrics: handlerMetrics(srv.Handler()),
		exec:          handlerExec(srv.Handler()),
	}
	fail := func(err error) (*instance, error) {
		inst.close()
		return nil, err
	}
	seed := ev.seed
	nextSeed := func() int64 { seed++; return seed }
	// Each family is asked for its finest size and the one or two below it:
	// poisson N in {9,17,33}, poisson3d N in {9,17} at full size.
	var solves []*element
	for _, fs := range ev.spec.families {
		sizes := 3
		if fs.family.Dim() == 3 {
			sizes = 2
		}
		for n, k := fs.maxSize, 0; k < sizes; n, k = (n+1)/2, k+1 {
			p, err := drawProblem(fs.family, n, nextSeed(), true)
			if err != nil {
				return fail(err)
			}
			for _, acc := range accuracies {
				solves = append(solves, &element{family: fs.family, n: n, acc: acc, probs: []*pbmg.Problem{p}})
			}
		}
	}
	first := ev.spec.families[0]
	batch := &element{family: first.family, n: (first.maxSize + 1) / 2, acc: 1e5, batch: true}
	for i := 0; i < 8; i++ {
		p, err := drawProblem(batch.family, batch.n, nextSeed(), true)
		if err != nil {
			return fail(err)
		}
		batch.probs = append(batch.probs, p)
	}
	inst.distinct = append(solves, batch)
	for _, e := range inst.distinct {
		if err := e.marshalBody(); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < 32; i++ {
		inst.op = append(inst.op, solves[i%len(solves)])
	}
	rand.New(rand.NewSource(ev.seed)).Shuffle(len(inst.op), func(i, j int) {
		inst.op[i], inst.op[j] = inst.op[j], inst.op[i]
	})
	inst.op = append(inst.op, batch)
	return inst, nil
}
