// Package serve is the HTTP front end over a pbmg.Registry: JSON solve
// and batch endpoints routed by (family, ε, dim), per-family admission
// quotas with a bounded wait queue and explicit load-shedding (429 +
// Retry-After when a family's queue is full, so a burst of expensive
// solves cannot starve the cheap families), request deadlines propagated
// into admission, atomic hot-reload of the tuned-table directory, and
// graceful drain — the paper's tune-once/serve-many model (§3.2.1) put on
// the network.
//
// The failure paths are first-class: request deadlines cancel admitted
// solves mid-cycle (503), diverged and panicked solves answer 500 while the
// daemon keeps serving, and each family's circuit breaker sheds with 503 +
// Retry-After after consecutive solver failures until a probe recloses it.
//
// Solve and batch bodies go through the grid codec (codec.go), are capped
// at the text of the largest grid the catalog serves (413 beyond), and every
// answer carries its Content-Length. A request that lists
// application/x-pbmg-grid in Accept gets its answer's grids as bytes, streamed
// from the solution (gridframe.go; layout in protocol.go); JSON is the
// default.
//
// Endpoints:
//
//	POST /v1/solve   one solve (SolveRequest → SolveResponse)
//	POST /v1/batch   one family's batch (BatchRequest → BatchResponse)
//	GET  /metrics    serving counters (Metrics)
//	GET  /healthz    200 while the process serves, 503 draining or closed
//	GET  /readyz     readiness: catalog loaded, breakers, drain state
//	POST /-/reload   rebuild the catalog from the config dir and swap it
//	POST /-/fault    chaos builds only (faultinject tag): arm fault spec
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbmg"
	"pbmg/internal/faultinject"
	"pbmg/internal/grid"
)

// DefaultMaxWait bounds the admission wait of requests that carry no
// deadline of their own.
const DefaultMaxWait = 30 * time.Second

// Config configures New.
type Config struct {
	// Dir is the tuned-table directory (one mgtune JSON per family) the
	// catalog is loaded — and hot-reloaded — from.
	Dir string
	// Workers sets the kernel worker pool shared by every family in a
	// catalog generation (≤ 1: serial).
	Workers int
	// MaxInFlight, Quotas, DefaultQuota and QueueDepth are forwarded verbatim
	// to pbmg.RegistryOptions (the admission state machine lives there).
	// Every family named in Quotas must exist in the catalog.
	MaxInFlight  int
	Quotas       map[string]int
	DefaultQuota int
	QueueDepth   int
	// MaxWait bounds requests without their own DeadlineMs: admission wait
	// and solve together (0: DefaultMaxWait). Like DeadlineMs, it is a full
	// request timeout — an admitted solve still running when it expires is
	// cancelled at its next cycle boundary.
	MaxWait time.Duration
	// Breaker configures every family's circuit breaker (zero value: the
	// pbmg defaults).
	Breaker pbmg.BreakerConfig
	// Logf, when non-nil, receives serving events (reloads, drain).
	Logf func(format string, args ...any)
}

// Server routes HTTP traffic to an atomically swappable catalog of tuned
// families. Create with New, expose via Handler, stop with
// BeginDrain/Drain/Close: Drain is the one bounded wait, and Close never
// blocks. A catalog generation frees its worker pool on the release of its
// last reference, whether a reload or Close dropped the server's hold on
// it. Safe for concurrent use.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// mu guards cur: requests acquire the current catalog under RLock, so
	// a swap (under Lock) strictly orders acquisition — no request can
	// pick up a catalog once the server's hold on it is dropped.
	mu  sync.RWMutex
	cur *catalog

	draining     atomic.Bool
	active       atomic.Int64
	shedDraining atomic.Int64
	// idle closes once draining is set and no grid-carrying request is
	// active: closeIdle runs from BeginDrain and from the request that
	// leaves last, and whichever sees both first closes it.
	idle     chan struct{}
	idleOnce sync.Once
}

// New loads the tuned-table directory and starts serving state (the HTTP
// listener is the caller's: wire Handler into an http.Server).
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir (tuned-table directory) is required")
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultMaxWait
	}
	c, err := buildCatalog(cfg)
	if err != nil {
		return nil, err
	}
	c.version = 1
	s := &Server{cfg: cfg, cur: c, idle: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /-/reload", s.handleReload)
	if faultinject.Enabled {
		// The chaos endpoint exists only in faultinject builds; production
		// binaries never register it.
		mux.HandleFunc("POST /-/fault", s.handleFault)
	}
	s.mux = mux
	s.logf("serving %d families from %s (version 1)", len(c.services), cfg.Dir)
	return s, nil
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Reload builds a fresh catalog from the config directory and atomically
// swaps it in. The build is all-or-nothing: on any error the live catalog
// keeps serving untouched and the error is returned with its version. On
// success, requests admitted before the swap finish on the old catalog,
// whose worker pool closes on the release of the last of them — a table
// swap under live traffic loses zero in-flight requests. After Close,
// Reload frees what it built and returns an error.
func (s *Server) Reload() (int64, error) {
	next, err := buildCatalog(s.cfg)
	s.mu.Lock()
	old := s.cur
	if err == nil && old != nil {
		next.version = old.version + 1
		s.cur = next
	}
	s.mu.Unlock()
	switch {
	case old == nil:
		if err == nil {
			next.release()
		}
		return 0, errors.New("serve: reload rejected: " + closedMsg)
	case err != nil:
		return old.version, fmt.Errorf("serve: reload rejected, keeping current catalog: %w", err)
	}
	old.release()
	s.logf("reloaded %s: %d families (version %d)", s.cfg.Dir, len(next.services), next.version)
	return next.version, nil
}

// BeginDrain stops admitting: every subsequent serving request is
// answered 503 + Retry-After (and counted in ShedDraining) while requests
// already admitted run to completion. /metrics stays available. Drain
// calls it too.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.logf("draining: shedding new requests, finishing %d in flight", s.active.Load())
	}
	if s.active.Load() == 0 {
		s.closeIdle()
	}
}

// leave ends a grid-carrying request; the last one out of a draining
// server closes idle.
func (s *Server) leave() {
	if s.active.Add(-1) == 0 && s.draining.Load() {
		s.closeIdle()
	}
}

func (s *Server) closeIdle() { s.idleOnce.Do(func() { close(s.idle) }) }

// Drain begins the drain if BeginDrain has not, then waits until no
// admitted request is in flight or ctx ends, whichever comes first: the
// one bounded wait of a shutdown. When ctx ends first it returns an error
// naming the requests still in flight; they run on, and Close does not
// wait for them. The SIGTERM sequence is BeginDrain →
// http.Server.Shutdown → Drain → Close.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.idle:
	case <-ctx.Done():
	}
	select {
	case <-s.idle:
		return nil
	default:
		return fmt.Errorf("serve: drain: %d requests still in flight: %w", s.active.Load(), ctx.Err())
	}
}

// Close drops the server's hold on its catalog and returns at once: from
// then on requests and Reload are refused with "server is closed".
// References still held (requests in flight) are logged, and the catalog's
// worker pool closes on the release of the last of them.
func (s *Server) Close() {
	s.mu.Lock()
	c := s.cur
	s.cur = nil
	s.mu.Unlock()
	if c == nil {
		return
	}
	if n := c.release(); n > 0 {
		s.logf("closed: catalog version %d still held by %d references; its pool closes when the last is released", c.version, n)
	}
}

// closedMsg ends the error of every request, and of Reload, after Close.
const closedMsg = "server is closed"

// acquireCatalog pins the current catalog generation for one request; nil
// after Close.
func (s *Server) acquireCatalog() *catalog {
	s.mu.RLock()
	c := s.cur
	if c != nil {
		c.acquire()
	}
	s.mu.RUnlock()
	return c
}

// pin is acquireCatalog for a handler that needs a catalog: after Close it
// answers 503 "server is closed" and returns nil.
func (s *Server) pin(w http.ResponseWriter) *catalog {
	c := s.acquireCatalog()
	if c == nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "serve: " + closedMsg})
	}
	return c
}

// writeJSON answers with a JSON body, encoded before the status is
// committed so a value that cannot be encoded is a 500, not an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		encodeFailed(w, err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// encodeFailed answers 500 for an answer JSON cannot carry.
func encodeFailed(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "serve: encoding answer: " + err.Error()})
}

// writeBody sends a complete JSON body with its Content-Length in one Write
// (so keep-alive clients see the end of the answer without a chunk trailer).
// A failed Write means the client is gone; there is nobody to tell.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", jsonMediaType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// answer is a grid-carrying 200 with nothing left to fail but its writes: a
// complete JSON body, or a grid frame's head with the grids to stream behind
// it (gridframe.go). The zero answer says the request was answered already.
type answer struct {
	body  *[]byte                // JSON framing: the whole body, from wirePool
	chunk *[8 * chunkValues]byte // grid framing: from chunkPool; holds head, then the values a chunk at a time
	head  []byte
	grids [][]float64 // grid framing: the solutions, aliasing the request's arena
}

// encodeAnswer builds a JSON answer in a pooled buffer with one of the codec's
// writers (sizeHint from encodedSize). An answer JSON cannot carry is answered
// 500 here, and the zero answer returned.
func encodeAnswer(w http.ResponseWriter, sizeHint int, encode func(dst []byte) ([]byte, error)) answer {
	buf := wirePool.Get().(*[]byte)
	if cap(*buf) < sizeHint {
		*buf = make([]byte, 0, sizeHint)
	}
	var err error
	if *buf, err = encode((*buf)[:0]); err != nil {
		wirePool.Put(buf)
		encodeFailed(w, err)
		return answer{}
	}
	return answer{body: buf}
}

// writeError maps an error to its HTTP status. Admission sheds (all match
// pbmg.ErrShed): queue full is 429 with Retry-After, an open breaker 503
// with the breaker's own suggested delay, every other shed — and a solve
// cancelled by its deadline — 503 with Retry-After. Diverged and panicked
// solves are 500 (the request failed inside the solver, the daemon is
// fine); bodies over the catalog's cap 413; everything else the given
// fallback.
func writeError(w http.ResponseWriter, err error, fallback int) {
	status := fallback
	var boe *pbmg.BreakerOpenError
	switch {
	case errors.Is(err, errBodyTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, pbmg.ErrQueueFull):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.As(err, &boe):
		status = http.StatusServiceUnavailable
		secs := int64(math.Ceil(boe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	case errors.Is(err, pbmg.ErrShed), errors.Is(err, pbmg.ErrCancelled):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, pbmg.ErrDiverged), errors.Is(err, pbmg.ErrPanicked):
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// shedDrainingNow answers a request that arrived while draining.
func (s *Server) shedDrainingNow(w http.ResponseWriter) {
	s.shedDraining.Add(1)
	w.Header().Set("Retry-After", "2")
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "serve: server is draining"})
}

// maxDeadlineMs is the largest DeadlineMs a time.Duration holds. A larger
// one would wrap negative in requestContext, so the request would be shed
// as already expired, and retried, when it can never run.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// checkDeadline refuses a DeadlineMs beyond maxDeadlineMs.
func checkDeadline(deadlineMs int64) error {
	if deadlineMs > maxDeadlineMs {
		return fmt.Errorf("serve: deadlineMs=%d exceeds the largest deadline, %d", deadlineMs, maxDeadlineMs)
	}
	return nil
}

// requestContext derives the request-bounding context: the request's own
// DeadlineMs when given, the server MaxWait otherwise, composed with the
// connection context so a gone client frees its queue slot. The context
// bounds the whole request — a solve still running when it expires is
// cancelled cooperatively at its next cycle or level boundary.
func (s *Server) requestContext(r *http.Request, deadlineMs int64) (context.Context, context.CancelFunc) {
	wait := s.cfg.MaxWait
	if deadlineMs > 0 {
		wait = time.Duration(deadlineMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), wait)
}

// route resolves a request's family to its service in this catalog
// generation.
func (c *catalog) route(familyName string, eps float64) (*pbmg.Service, error) {
	f, err := pbmg.ParseFamily(familyName)
	if err != nil {
		return nil, err
	}
	return c.reg.Lookup(f, eps)
}

// checkSide refuses a grid side the family does not serve: outside
// [3, MaxSize], or not 2^k+1.
func checkSide(svc *pbmg.Service, n int) error {
	if n < 3 || n > svc.Solver().MaxSize() {
		return fmt.Errorf("serve: n=%d outside the served range [3, %d] for family %s",
			n, svc.Solver().MaxSize(), svc.Key())
	}
	if grid.Level(n) < 1 {
		return fmt.Errorf("serve: n=%d is not 2^k+1", n)
	}
	return nil
}

// buildGrids validates one problem's values and wraps them as grids aliasing
// the given slices, which the caller keeps alive and to itself until the
// answer is encoded: b, and x when the request carries one — otherwise zeros,
// len(b) zeroed values of the request's arena (zero boundary, zero guess).
func buildGrids(svc *pbmg.Service, n int, b, x, zeros []float64) (xg, bg *pbmg.Grid, err error) {
	if err := checkSide(svc, n); err != nil {
		return nil, nil, err
	}
	dim := svc.Solver().Dim()
	points := gridPoints(n, dim)
	if len(b) != points {
		return nil, nil, fmt.Errorf("serve: b has %d values, family %s at n=%d needs %d", len(b), svc.Key(), n, points)
	}
	if len(x) != 0 && len(x) != points {
		return nil, nil, fmt.Errorf("serve: x has %d values, want %d or none", len(x), points)
	}
	// NaN/Inf inputs are rejected before admission: they cannot converge,
	// and would burn a solve slot on a guaranteed divergence error. Failing
	// 400 here keeps garbage out of the solver entirely.
	if i := firstNonFinite(b); i >= 0 {
		return nil, nil, fmt.Errorf("serve: b[%d] is not finite", i)
	}
	if i := firstNonFinite(x); i >= 0 {
		return nil, nil, fmt.Errorf("serve: x[%d] is not finite", i)
	}
	if len(x) == 0 {
		x = zeros
	}
	return grid.FromSlice(dim, n, x), grid.FromSlice(dim, n, b), nil
}

// zeroGuesses carves a zero guess from the request's arena for every problem
// that sent no x, len(b) values each (a b of the wrong length fails
// validation, its zeros unused). The arena grows once for all of them, by no
// more values than the body carried, whatever the count of problems.
func zeroGuesses(arena *[]float64, probs []BatchProblem) [][]float64 {
	total := 0
	for _, p := range probs {
		if len(p.X) == 0 {
			total += len(p.B)
		}
	}
	zeros := carveZeros(arena, total)
	guesses := make([][]float64, len(probs))
	for i, p := range probs {
		if n := len(p.B); len(p.X) == 0 {
			guesses[i], zeros = zeros[:n:n], zeros[n:]
		}
	}
	return guesses
}

// gridPoints is the value count of one grid of side n.
func gridPoints(n, dim int) int {
	if dim == 3 {
		return n * n * n
	}
	return n * n
}

// firstNonFinite returns the index of the first NaN or ±Inf in vs, -1 when
// all values are finite.
func firstNonFinite(vs []float64) int {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// readWire reads a request body of at most limit bytes and decodes it into v,
// whose float arrays alias *arena. The body's pooled buffer lives only inside
// this call, so a request queued behind its family quota holds its grids (the
// arena, which the handler keeps until its answer is encoded) and nothing
// else.
func readWire[T any](w http.ResponseWriter, r *http.Request, limit int64, arena *[]float64, v *T, scan func(*scanner, *T) bool) error {
	buf := wirePool.Get().(*[]byte)
	defer wirePool.Put(buf)
	var err error
	if *buf, err = readRequest(w, r, limit, *buf); err != nil {
		return err
	}
	if err := decodeWire(*buf, arena, v, scan); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}

// serveGrids is the frame of a grid-carrying request: count as active, shed
// while draining, and pin the catalog until the answer is written. The
// request counts before it looks at draining, so a Drain that sees no
// request active cannot miss one admitted in the meantime. run takes
// the request up to its answer — or answers an error itself — with its grids
// in the given arena, which is back in its pool before a JSON answer is sent
// and before a grid answer's last chunk is: a slow client holds the bytes in
// flight to it and nothing else. The framing is the request's to choose
// (acceptsGrid), so every answer says Vary: Accept.
func (s *Server) serveGrids(w http.ResponseWriter, r *http.Request, run func(*Server, http.ResponseWriter, *http.Request, *catalog, *[]float64) answer) {
	w.Header().Set("Vary", "Accept")
	s.active.Add(1)
	defer s.leave()
	if s.draining.Load() {
		s.shedDrainingNow(w)
		return
	}
	c := s.pin(w)
	if c == nil {
		return
	}
	defer c.release()

	arena := arenaPool.Get().(*[]float64)
	a := run(s, w, r, c, arena)
	if a.grids != nil {
		a.stream(w, arena)
		return
	}
	arenaPool.Put(arena)
	if a.body != nil {
		writeBody(w, http.StatusOK, *a.body)
		wirePool.Put(a.body)
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.serveGrids(w, r, (*Server).solve)
}
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.serveGrids(w, r, (*Server).batch)
}

// solve runs one POST /v1/solve up to its answer.
func (s *Server) solve(w http.ResponseWriter, r *http.Request, c *catalog, arena *[]float64) answer {
	var req SolveRequest
	if err := readWire(w, r, c.maxBody, arena, &req, (*scanner).solveRequest); err != nil {
		writeError(w, err, http.StatusBadRequest)
		return answer{}
	}
	if err := checkDeadline(req.DeadlineMs); err != nil {
		writeError(w, err, http.StatusBadRequest)
		return answer{}
	}
	svc, err := c.route(req.Family, req.Eps)
	if err != nil {
		writeError(w, err, http.StatusNotFound)
		return answer{}
	}
	var zeros []float64
	if len(req.X) == 0 {
		zeros = carveZeros(arena, len(req.B))
	}
	x, b, err := buildGrids(svc, req.N, req.B, req.X, zeros)
	if err != nil {
		writeError(w, err, http.StatusBadRequest)
		return answer{}
	}

	ctx, cancel := s.requestContext(r, req.DeadlineMs)
	defer cancel()
	t0 := time.Now()
	if err := svc.SolveContext(ctx, x, b, req.Accuracy); err != nil {
		writeError(w, err, http.StatusBadRequest)
		return answer{}
	}
	resp := SolveResponse{
		X:         x.Data(),
		Family:    svc.Family().String(),
		Eps:       epsOf(svc),
		N:         req.N,
		Precision: "f64",
		SolveNs:   time.Since(t0).Nanoseconds(),
	}
	encode := func(dst []byte) ([]byte, error) { return appendSolveResponse(dst, &resp) }
	if acceptsGrid(r.Header) {
		resp.X = []float64{} // the envelope: this answer, its grid left to the frame
		return frameAnswer(w, kindSolve, [][]float64{x.Data()}, encode)
	}
	return encodeAnswer(w, encodedSize(len(resp.X)), encode)
}

// batch runs one POST /v1/batch up to its answer.
func (s *Server) batch(w http.ResponseWriter, r *http.Request, c *catalog, arena *[]float64) answer {
	var req BatchRequest
	if err := readWire(w, r, batchBodyFactor*c.maxBody, arena, &req, (*scanner).batchRequest); err != nil {
		writeError(w, err, http.StatusBadRequest)
		return answer{}
	}
	if len(req.Problems) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "serve: batch names no problems"})
		return answer{}
	}
	if err := checkDeadline(req.DeadlineMs); err != nil {
		writeError(w, err, http.StatusBadRequest)
		return answer{}
	}

	svc, err := c.route(req.Family, req.Eps)
	if err != nil {
		writeError(w, err, http.StatusNotFound)
		return answer{}
	}
	// A side the family does not serve fails every problem alike: refused
	// whole, before any of them takes a slot.
	if err := checkSide(svc, req.N); err != nil {
		writeError(w, err, http.StatusBadRequest)
		return answer{}
	}
	ctx, cancel := s.requestContext(r, req.DeadlineMs)
	defer cancel()

	resp := BatchResponse{
		Results:   make([]BatchResult, len(req.Problems)),
		Family:    svc.Family().String(),
		Eps:       epsOf(svc),
		N:         req.N,
		Precision: "f64",
	}
	// Zero guesses are carved here, before the fan-out shares the arena; each
	// fan-out worker then validates and wraps its own problem's grids just
	// before admission, and a problem that fails validation fails alone.
	zeros := zeroGuesses(arena, req.Problems)
	errs, err := svc.SolveBatchContext(ctx, len(req.Problems), func(i int) (pbmg.BatchProblem, error) {
		xg, bg, err := buildGrids(svc, req.N, req.Problems[i].B, req.Problems[i].X, zeros[i])
		if err != nil {
			return pbmg.BatchProblem{}, err
		}
		resp.Results[i].X = xg.Data()
		return pbmg.BatchProblem{X: xg, B: bg}, nil
	}, req.Accuracy)
	if err != nil {
		writeError(w, err, http.StatusServiceUnavailable)
		return answer{}
	}
	for i, err := range errs {
		if err != nil {
			resp.Results[i] = BatchResult{Error: err.Error()}
		}
	}
	encode := func(dst []byte) ([]byte, error) { return appendBatchResponse(dst, &resp) }
	if acceptsGrid(r.Header) {
		grids := make([][]float64, len(resp.Results))
		for i := range resp.Results {
			grids[i], resp.Results[i].X = resp.Results[i].X, nil
		}
		return frameAnswer(w, kindBatch, grids, encode)
	}
	nfloats := 0
	for _, r := range resp.Results {
		nfloats += len(r.X)
	}
	return encodeAnswer(w, encodedSize(nfloats), encode)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.pin(w)
	if c == nil {
		return
	}
	defer c.release()

	rm := c.reg.Metrics() // families in registration order, like c.services
	m := Metrics{
		Version:           c.version,
		ConfigDir:         c.dir,
		Draining:          s.draining.Load(),
		GlobalMaxInFlight: c.reg.MaxInFlight(),
		Aggregate:         rm.Aggregate,
		Unroutable:        rm.Unroutable,
		ShedDraining:      s.shedDraining.Load(),
		ActiveRequests:    s.active.Load(),
	}
	for i, svc := range c.services {
		m.Families = append(m.Families, FamilyStatus{
			Family:         svc.Family().String(),
			Eps:            epsOf(svc),
			Dim:            svc.Solver().Dim(),
			MaxSize:        svc.Solver().MaxSize(),
			Quota:          svc.Quota(),
			QueueDepth:     svc.QueueDepth(),
			Escalations:    svc.Solver().Escalations(),
			Breaker:        rm.Families[i].Breaker,
			ServiceMetrics: rm.Families[i].ServiceMetrics,
		})
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c := s.pin(w)
	if c == nil {
		return
	}
	defer c.release()
	if s.draining.Load() {
		w.Header().Set("Retry-After", "2")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "serve: server is draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "version": c.version})
}

// handleReadyz answers readiness: 200 when the catalog is loaded, no
// breaker is open, and the server is not draining; 503 + Retry-After
// otherwise. Load balancers poll it to take a melting-down or draining
// instance out of rotation while /healthz still reports the process alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type familyReadiness struct {
		Family  string `json:"family"`
		Breaker string `json:"breaker"`
	}
	resp := struct {
		Status   string            `json:"status"`
		Version  int64             `json:"version"`
		Draining bool              `json:"draining"`
		Families []familyReadiness `json:"families,omitempty"`
	}{Status: "ready", Draining: s.draining.Load()}

	ready := !resp.Draining
	c := s.acquireCatalog()
	if c == nil {
		ready = false
	} else {
		resp.Version = c.version
		for _, svc := range c.services {
			state := svc.BreakerState()
			resp.Families = append(resp.Families, familyReadiness{Family: svc.Key().String(), Breaker: state})
			if state == "open" {
				// A half-open breaker stays ready: the next request probes.
				ready = false
			}
		}
		c.release()
	}
	if !ready {
		resp.Status = "not ready"
		w.Header().Set("Retry-After", "2")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFault (chaos builds only) arms the fault spec in the request body,
// replacing whatever was armed before; an empty body just clears. See
// internal/faultinject for the spec syntax.
func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<10))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "serve: bad fault body: " + err.Error()})
		return
	}
	faultinject.Clear()
	if spec := strings.TrimSpace(string(body)); spec != "" {
		if err := faultinject.ArmSpec(spec); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "armed", "faults": faultinject.Armed()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	v, err := s.Reload()
	if err != nil {
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "reloaded", "version": v})
}

// epsOf reports a service's resolved parameter, 0 for parameterless
// families (so it is omitted on the wire).
func epsOf(svc *pbmg.Service) float64 {
	if pbmg.FamilyHasParam(svc.Family()) {
		return svc.Epsilon()
	}
	return 0
}
