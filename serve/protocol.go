package serve

import "pbmg"

// Wire types of the HTTP serving protocol. Grids travel as flat JSON
// arrays in the same row-major (2D) / plane-major (3D) layout as
// pbmg.Grid.Data, so a client round-trips a grid without reshaping. The
// same structs serve both directions: the server decodes requests with
// them and Client encodes them, so the protocol cannot drift between the
// two.
//
// Requests are JSON. A grid-carrying 200 (SolveResponse, BatchResponse) comes
// in one of two framings, chosen by the request and by nothing else:
//
//   - application/json, the default: the struct as encoding/json writes it.
//   - application/x-pbmg-grid, for a request whose Accept header lists that
//     type (any position; parameters ignored, but q=0 declines it): the grids
//     as bytes. Every answer of the two endpoints says Vary: Accept, and
//     everything that is not a 200 stays a JSON ErrorResponse.
//
// The grid framing, all integers little-endian:
//
//	offset  size  field
//	0       4     magic "PBMG"
//	4       1     version, 1
//	5       1     kind: 1 solve answer, 2 batch answer
//	6       4     E, the envelope's length (uint32)
//	10      E     envelope: the JSON answer with its grids left out — "x":[]
//	              in a solve answer, no "x" in a batch result (a failed one
//	              keeps its "error")
//	10+E    ...   the grids, in answer order: one for a solve answer, one per
//	              result for a batch answer. Each is a count (uint64) and
//	              count values, IEEE-754 float64 bits as uint64s, in the grid
//	              layout above; a failed batch result's count is 0.
//
// Nothing follows the last grid; Content-Length is exact. The values are the
// bits the JSON framing prints and a JSON reader parses back: the framings
// differ in cost, not in content (TestFramingsAgree). Client asks for the grid
// framing on every solve and batch and reads whichever the Content-Type
// announces.

// SolveRequest is the body of POST /v1/solve: one tuned solve routed by
// (family, eps) to the serving catalog.
type SolveRequest struct {
	// Family names the operator family ("poisson", "aniso", "varcoef",
	// "poisson3d").
	Family string `json:"family"`
	// Eps is the family parameter (ε or σ); 0 selects the family default.
	// Ignored for the parameterless Laplacians, like the CLI flags.
	Eps float64 `json:"eps,omitempty"`
	// N is the grid side (2^k+1, within the family's tuned range). 2D
	// families expect N² values per grid, 3D families N³.
	N int `json:"n"`
	// Accuracy is the requested accuracy level (the paper's 10…10⁹ scale).
	Accuracy float64 `json:"accuracy"`
	// B is the right-hand side, flat in grid layout.
	B []float64 `json:"b"`
	// X optionally carries the Dirichlet boundary and initial guess; when
	// absent the solve starts from the zero grid (zero boundary).
	X []float64 `json:"x,omitempty"`
	// DeadlineMs bounds the WHOLE request server-side: a request still
	// queued behind its family quota when the deadline expires is shed with
	// 503, and an admitted solve still running is cancelled cooperatively at
	// its next cycle or level boundary (also 503, within roughly one cycle's
	// latency). 0 falls back to the server's MaxWait; one beyond what a
	// time.Duration holds (about 292 years) is refused with 400.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	// X is the solution, flat in grid layout.
	X []float64 `json:"x"`
	// Family and Eps echo the configuration that served the request (Eps
	// resolved to the tuned value, so a default-eps request learns what it
	// got).
	Family string  `json:"family"`
	Eps    float64 `json:"eps,omitempty"`
	N      int     `json:"n"`
	// Precision is the storage precision the solve ran in: always "f64".
	// Kept for `bench/`; goes with ROADMAP item 0's benchmark PR.
	Precision string `json:"precision,omitempty"`
	// SolveNs is the server-side duration of admission and solve together
	// (any wait in the family's queue included).
	SolveNs int64 `json:"solveNs"`
}

// BatchRequest is the body of POST /v1/batch: several problems of one
// family solved concurrently under the family's quota. The batch holds ONE
// place in the family's admission queue; its problems then take the
// family's running slots one by one (pbmg.Service.SolveBatchContext).
type BatchRequest struct {
	Family   string  `json:"family"`
	Eps      float64 `json:"eps,omitempty"`
	N        int     `json:"n"`
	Accuracy float64 `json:"accuracy"`
	// Problems are the per-problem grids (B required, X optional, as in
	// SolveRequest).
	Problems   []BatchProblem `json:"problems"`
	DeadlineMs int64          `json:"deadlineMs,omitempty"`
}

// BatchProblem is one problem of a batch request.
type BatchProblem struct {
	B []float64 `json:"b"`
	X []float64 `json:"x,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch. Results is
// parallel to the request's Problems; a problem that failed carries its
// error and no X (its siblings still complete, like Service.SolveBatch).
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	Family  string        `json:"family"`
	Eps     float64       `json:"eps,omitempty"`
	N       int           `json:"n"`
	// Precision is always "f64", as in SolveResponse. Kept for `bench/`;
	// goes with ROADMAP item 0's benchmark PR.
	Precision string `json:"precision,omitempty"`
}

// BatchResult is one problem's outcome.
type BatchResult struct {
	X     []float64 `json:"x,omitempty"`
	Error string    `json:"error,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// FamilyStatus is one served family's block in the /metrics answer: the
// catalog entry, its quota configuration, its breaker state, and — inlined —
// the family's admission counters and gauges, declared once as
// pbmg.ServiceMetrics (admitted, completed, failed, shed and its classes
// shedQueueFull / shedDeadline / breakerShed, queueLen, inFlight, ...).
type FamilyStatus struct {
	Family  string  `json:"family"`
	Eps     float64 `json:"eps,omitempty"`
	Dim     int     `json:"dim"`
	MaxSize int     `json:"maxSize"`
	// Quota is the family's concurrent-solve limit (0: global limit only);
	// QueueDepth is its bounded admission queue.
	Quota      int `json:"quota"`
	QueueDepth int `json:"queueDepth"`
	// Escalations is always 0: every solve runs in float64, so none is
	// retried at a wider precision. Kept for `bench/`; goes with ROADMAP
	// item 0's benchmark PR.
	Escalations int64 `json:"escalations"`
	// Breaker is the family's circuit-breaker state ("closed", "open",
	// "half-open").
	Breaker string `json:"breaker"`
	pbmg.ServiceMetrics
}

// Metrics is the body of GET /metrics.
type Metrics struct {
	// Version counts catalog swaps: 1 after startup, +1 per successful
	// reload. ConfigDir is the tuned-table directory the catalog came from.
	Version   int64  `json:"version"`
	ConfigDir string `json:"configDir"`
	Draining  bool   `json:"draining"`
	// GlobalMaxInFlight is the effective registry-wide cap behind the
	// per-family quotas: max(MaxInFlight, Σ quotas).
	GlobalMaxInFlight int            `json:"globalMaxInFlight"`
	Families          []FamilyStatus `json:"families"`
	// Aggregate sums the per-family counters.
	Aggregate pbmg.ServiceMetrics `json:"aggregate"`
	// Unroutable counts requests for families the catalog does not serve;
	// ShedDraining counts requests refused because the server was draining.
	Unroutable   int64 `json:"unroutable"`
	ShedDraining int64 `json:"shedDraining"`
	// ActiveRequests is the gauge of HTTP requests currently inside the
	// serving handlers (queued or solving).
	ActiveRequests int64 `json:"activeRequests"`
}
