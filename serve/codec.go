package serve

// The grid codec: a hand-written JSON reader and writer for exactly the four
// grid-carrying wire structs (SolveRequest, BatchRequest, SolveResponse,
// BatchResponse). A served body is a short envelope around one or more flat
// float arrays of up to millions of values, and reflective encoding/json
// spends four to five times the tuned solve on it (bench/README.md, "The
// ladder at a glance"). The codec reads a body once into a pooled buffer,
// scans it once — a number's grammar is checked and its value gathered in
// the same pass (floattext.go) — and writes answers, and the client's
// requests, digit by digit into a buffer reserved once. strconv sees only the
// rare number token the reader declines to decide.
//
// One parser reads every float array (appendFloatList). A long array's text
// is cut at commas into pieces that the decoding goroutine and GOMAXPROCS−1
// helpers claim in turn: at N=257 the parse is most of a request, and the
// other core idles while the client waits. The decoding goroutine never waits
// on an unclaimed piece, so a late or slow helper costs at most the one it holds.
//
// A client that lists application/x-pbmg-grid in Accept gets its answer's
// grids as bytes instead (gridframe.go); the writers here then produce only
// that frame's envelope, the same answer with its grids left out.
//
// The wire format is encoding/json's, unchanged:
//
//   - The writers' output is byte-identical to json.Marshal of the struct
//     (answers add the trailing newline json.Encoder adds).
//   - The reader decides nothing about JSON validity. Its scanner recognises
//     only the plain shape every client emits (exact-case known keys, each at
//     most once, unescaped ASCII strings, number arrays); on anything else it
//     gives up before producing a result and the same bytes go through
//     json.Unmarshal, so what is accepted, rejected and decoded is what
//     encoding/json says. codec_test.go pins both directions, with
//     differential fuzz targets for the readers.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Request body caps. A body is refused with 413 before anything is allocated
// for it when it is longer than the text of the largest problem the catalog
// generation serves: two grids (b and x) of the largest family's points at
// floatTextMax bytes per value, plus envelopeMax for the other fields. A
// batch may carry batchBodyFactor such problems.
const (
	// floatTextMax bounds one grid value on the wire: the widest shortest
	// round-trip float64 text (-0.0000012345678901234567, 25 bytes), its
	// comma, and room for a client that indents one value per line.
	floatTextMax = 32
	// envelopeMax bounds the non-grid part of a body (keys, family, eps, n,
	// accuracy, deadlineMs, whitespace).
	envelopeMax = 4096
	// batchBodyFactor is how many largest-grid problems' worth of text one
	// /v1/batch body may carry.
	batchBodyFactor = 16
)

// maxSolveBody is the /v1/solve body cap for a catalog whose largest served
// grid has maxPoints points.
func maxSolveBody(maxPoints int) int64 {
	return 2*int64(maxPoints)*floatTextMax + envelopeMax
}

// errBodyTooLarge answers a request body over its cap (HTTP 413).
var errBodyTooLarge = errors.New("serve: request body too large")

// The per-request scratch of the codec: wirePool recycles raw bodies (read or
// being built), arenaPool the arenas decoded float arrays are carved from,
// which outlive the body when a request's grids alias them. Buffers recycle
// through the pools only, so an idle server retains none of them past two GC
// cycles.
var (
	wirePool  = sync.Pool{New: func() any { return new([]byte) }}
	arenaPool = sync.Pool{New: func() any { return new([]float64) }}
)

// maxPresize caps how much readAll allocates on the word of a Content-Length
// header alone; beyond it the buffer grows with the bytes actually received.
const maxPresize = 64 << 20

// readAll reads r to EOF into buf's storage, grown as needed. sizeHint is
// the expected length (a Content-Length), negative when unknown.
func readAll(r io.Reader, buf []byte, sizeHint int64) ([]byte, error) {
	buf = buf[:0]
	// One spare byte lets the Read that reports EOF happen without growing.
	if need := max(min(sizeHint, maxPresize)+1, 512); int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// readRequest reads the whole request body into buf's storage. Bodies longer
// than limit fail with errBodyTooLarge: up front when Content-Length says so,
// otherwise (chunked) as soon as the limit is passed.
func readRequest(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		buf, err = readAll(http.MaxBytesReader(w, r.Body, limit), buf, r.ContentLength)
	}
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return buf, nil
	case errors.As(err, &mbe):
		return buf, fmt.Errorf("%w: limit is %d bytes", errBodyTooLarge, limit)
	}
	return buf, fmt.Errorf("serve: bad request body: %w", err)
}

// floatArena returns arena emptied, with room for every float array in data:
// each array element is followed by ',' or ']', so their count bounds the
// values (and keeps the arena under len(data) elements whatever data holds).
// The scanner appends into it, so a short arena costs allocations, never
// correctness.
func floatArena(arena []float64, data []byte) []float64 {
	need := bytes.Count(data, []byte{','}) + bytes.Count(data, []byte{']'})
	if cap(arena) < need {
		return make([]float64, 0, need)
	}
	return arena[:0]
}

// decodeWire decodes data into v, one of the four wire structs, with its
// scanner method — or, when the scanner declines, with json.Unmarshal. The
// decoded float arrays alias *arena, which is resized for data and left
// holding exactly the values decoded into it (none after a json.Unmarshal):
// pass pooled storage only when v's slices are dead before the storage is
// recycled, nil for arrays of their own.
func decodeWire[T any](data []byte, arena *[]float64, v *T, scan func(*scanner, *T) bool) error {
	if arena == nil {
		arena = new([]float64)
	}
	*arena = floatArena(*arena, data)
	s := scanner{data: data, floats: *arena, piece: pieceBytes}
	if scan(&s, v) && s.end() {
		*arena = s.floats
		return nil
	}
	*v = *new(T)
	return json.Unmarshal(data, v)
}

// carveZeros extends a decoded request's arena by n zeros and returns them:
// the zero guesses of the problems that sent no x, living and dying with the
// request's other grids instead of being allocated per request. An arena too
// short is replaced by one that fits — the arrays already decoded keep the
// old storage alive, the pool inherits the larger — so a steady stream of
// like requests allocates once, and a request calls this once.
func carveZeros(arena *[]float64, n int) []float64 {
	used := len(*arena)
	if cap(*arena) < used+n {
		*arena = make([]float64, used, used+n)
	}
	*arena = (*arena)[:used+n]
	zeros := (*arena)[used : used+n : used+n]
	clear(zeros)
	return zeros
}

// scanner is the single forward scan over one body. Every method returns
// false to decline: the input is not in the plain shape, and the caller
// must hand the body to encoding/json instead.
type scanner struct {
	data   []byte
	pos    int
	floats []float64
	piece  int // bytes of text a claim of a long array parses; 0: never cut
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.space()
	return s.pos == len(s.data)
}

// str scans a string of unescaped printable ASCII and returns its content,
// aliasing the body. Escapes, control bytes and non-ASCII (which
// encoding/json may rewrite to U+FFFD) decline.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// key scans one object key and its colon.
func (s *scanner) key() ([]byte, bool) {
	k, ok := s.str()
	return k, ok && s.consume(':')
}

// once declines a repeated key: encoding/json merges repeats field by field,
// which is not worth mirroring.
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (s *scanner) stringField(dst *string) bool {
	v, ok := s.str()
	if ok {
		*dst = string(v)
	}
	return ok
}

// float scans a number the way encoding/json stores one in a float64 field:
// the value strconv.ParseFloat gives the token, out-of-range (1e999) being an
// error there and a decline here. The token's end is not checked: the
// caller's next consume must find a delimiter, so "01" or "1.2.3" decline.
func (s *scanner) float() (float64, bool) {
	s.space()
	f, end, fast := scanFloat(s.data, s.pos)
	if end < 0 {
		return 0, false
	}
	if !fast {
		var err error
		if f, err = strconv.ParseFloat(string(s.data[s.pos:end]), 64); err != nil {
			return 0, false
		}
	}
	s.pos = end
	return f, true
}

func (s *scanner) floatField(dst *float64) (ok bool) {
	*dst, ok = s.float()
	return ok
}

// integer scans a number into an integer field of the given width. A
// fraction or an exponent, an error in encoding/json, is left unread for the
// caller's delimiter check to decline, like the second digit of "01".
func (s *scanner) integer(bits int) (int64, bool) {
	s.space()
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else {
		for i < len(d) && d[i]-'0' <= 9 {
			i++
		}
	}
	v, err := strconv.ParseInt(string(d[s.pos:i]), 10, bits)
	s.pos = i
	return v, err == nil
}

func (s *scanner) intField(dst *int) bool {
	v, ok := s.integer(strconv.IntSize)
	*dst = int(v)
	return ok
}

func (s *scanner) int64Field(dst *int64) (ok bool) {
	*dst, ok = s.integer(64)
	return ok
}

// floatArray scans an array of numbers into the arena. The result's
// capacity is clipped so appending to it cannot reach a neighbour.
func (s *scanner) floatArray(dst *[]float64) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		*dst = []float64{} // encoding/json: empty, not nil
		return true
	}
	// A number array ends at its first ']' (text up to another one declines).
	n := bytes.IndexByte(s.data[s.pos:], ']')
	if n < 0 {
		return false
	}
	start, ok := len(s.floats), false
	if s.floats, ok = appendFloatList(s.floats, s.data[s.pos:s.pos+n], s.piece); !ok {
		return false
	}
	s.pos += n + 1
	*dst = s.floats[start:len(s.floats):len(s.floats)]
	return true
}

// pieceBytes is the array text one claim parses: ≈ 6.9 k grid values,
// ≈ 0.25 ms, against which a claim's atomic add and comma count are noise; an
// N=257 grid still makes nine, so a late or slow core holds up at most one.
const pieceBytes = 128 << 10

// appendFloatList appends the numbers of text, an array between its brackets,
// to dst; false when text is anything else. Text of two pieces or more is cut
// at the first comma a piece or more past each cut, and this goroutine and
// min(GOMAXPROCS, pieces) − 1 helpers claim the pieces from one cursor; this
// goroutine claims until none is left, then waits for the pieces claimed. A
// piece that declines declines the whole array.
func appendFloatList(dst []float64, text []byte, piece int) ([]float64, bool) {
	type cut struct{ at, val int } // piece k: text[cuts[k].at:cuts[k+1].at-1], from value cuts[k].val
	var cuts []cut
	at, values := 0, 0
	for piece > 0 && len(text)-at >= 2*piece {
		c := bytes.IndexByte(text[at+piece:], ',')
		if c < 0 {
			break
		}
		if cuts == nil {
			cuts = make([]cut, 1, len(text)/piece+2)
		}
		c += at + piece
		values += bytes.Count(text[at:c], []byte{','}) + 1
		at = c + 1
		cuts = append(cuts, cut{at, values})
	}
	values += bytes.Count(text[at:], []byte{','}) + 1
	start := len(dst)
	dst = slices.Grow(dst, values)[:start+values]
	vals := dst[start:]
	if cuts == nil {
		return dst, parseFloatList(text, vals)
	}
	cuts = append(cuts, cut{len(text) + 1, values})
	n := len(cuts) - 1
	var st struct {
		next atomic.Int64 // the first unclaimed piece
		bad  atomic.Bool
		done sync.WaitGroup
	}
	st.done.Add(n)
	claim := func() {
		for k := int(st.next.Add(1)) - 1; k < n; k = int(st.next.Add(1)) - 1 {
			if !parseFloatList(text[cuts[k].at:cuts[k+1].at-1], vals[cuts[k].val:cuts[k+1].val]) {
				st.bad.Store(true)
			}
			st.done.Done()
		}
	}
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		go claim()
	}
	claim()
	st.done.Wait()
	return dst, !st.bad.Load()
}

// parseFloatList parses text, len(vals) numbers separated by commas, into
// vals; false when text is anything else.
func parseFloatList(text []byte, vals []float64) bool {
	s := scanner{data: text}
	for k := range vals {
		f, ok := s.float()
		if !ok || k < len(vals)-1 && !s.consume(',') {
			return false
		}
		vals[k] = f
	}
	return s.end()
}

// object scans a JSON object, calling field with each key to scan its
// value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		k, ok := s.key()
		if !ok || !field(k) {
			return false
		}
		if s.consume(',') {
			continue
		}
		return s.consume('}')
	}
}

// array scans a JSON array, calling elem to scan each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.consume(',') {
			continue
		}
		return s.consume(']')
	}
}

func (s *scanner) solveRequest(req *SolveRequest) bool {
	var seen uint
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "family":
			return once(&seen, 1<<0) && s.stringField(&req.Family)
		case "eps":
			return once(&seen, 1<<1) && s.floatField(&req.Eps)
		case "n":
			return once(&seen, 1<<2) && s.intField(&req.N)
		case "accuracy":
			return once(&seen, 1<<3) && s.floatField(&req.Accuracy)
		case "b":
			return once(&seen, 1<<4) && s.floatArray(&req.B)
		case "x":
			return once(&seen, 1<<5) && s.floatArray(&req.X)
		case "deadlineMs":
			return once(&seen, 1<<6) && s.int64Field(&req.DeadlineMs)
		}
		return false
	})
}

func (s *scanner) batchRequest(req *BatchRequest) bool {
	var seen uint
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "family":
			return once(&seen, 1<<0) && s.stringField(&req.Family)
		case "eps":
			return once(&seen, 1<<1) && s.floatField(&req.Eps)
		case "n":
			return once(&seen, 1<<2) && s.intField(&req.N)
		case "accuracy":
			return once(&seen, 1<<3) && s.floatField(&req.Accuracy)
		case "problems":
			if !once(&seen, 1<<4) {
				return false
			}
			req.Problems = []BatchProblem{}
			return s.array(func() bool {
				var p BatchProblem
				var seenP uint
				ok := s.object(func(key []byte) bool {
					switch string(key) {
					case "b":
						return once(&seenP, 1<<0) && s.floatArray(&p.B)
					case "x":
						return once(&seenP, 1<<1) && s.floatArray(&p.X)
					}
					return false
				})
				req.Problems = append(req.Problems, p)
				return ok
			})
		case "deadlineMs":
			return once(&seen, 1<<5) && s.int64Field(&req.DeadlineMs)
		}
		return false
	})
}

func (s *scanner) solveResponse(resp *SolveResponse) bool {
	var seen uint
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "x":
			return once(&seen, 1<<0) && s.floatArray(&resp.X)
		case "family":
			return once(&seen, 1<<1) && s.stringField(&resp.Family)
		case "eps":
			return once(&seen, 1<<2) && s.floatField(&resp.Eps)
		case "n":
			return once(&seen, 1<<3) && s.intField(&resp.N)
		case "precision":
			return once(&seen, 1<<4) && s.stringField(&resp.Precision)
		case "solveNs":
			return once(&seen, 1<<5) && s.int64Field(&resp.SolveNs)
		}
		return false
	})
}

func (s *scanner) batchResponse(resp *BatchResponse) bool {
	var seen uint
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "results":
			if !once(&seen, 1<<0) {
				return false
			}
			resp.Results = []BatchResult{}
			return s.array(func() bool {
				var r BatchResult
				var seenR uint
				ok := s.object(func(key []byte) bool {
					switch string(key) {
					case "x":
						return once(&seenR, 1<<0) && s.floatArray(&r.X)
					case "error":
						return once(&seenR, 1<<1) && s.stringField(&r.Error)
					}
					return false
				})
				resp.Results = append(resp.Results, r)
				return ok
			})
		case "family":
			return once(&seen, 1<<1) && s.stringField(&resp.Family)
		case "eps":
			return once(&seen, 1<<2) && s.floatField(&resp.Eps)
		case "n":
			return once(&seen, 1<<3) && s.intField(&resp.N)
		case "precision":
			return once(&seen, 1<<4) && s.stringField(&resp.Precision)
		}
		return false
	})
}

// The writers. Each appends exactly what json.NewEncoder(w).Encode(resp)
// would write, and fails — like it — on a value JSON cannot carry.

// encodedSize estimates the text of nfloats grid values plus an envelope, to
// size the output buffer once (most values take 19–21 bytes and a comma).
func encodedSize(nfloats int) int { return 24*nfloats + 256 }

func appendSolveResponse(dst []byte, resp *SolveResponse) ([]byte, error) {
	dst = append(dst, `{"x":`...)
	dst, err := appendFloats(dst, resp.X)
	if err != nil {
		return dst, err
	}
	if dst, err = appendTrailer(dst, resp.Family, resp.Eps, resp.N, resp.Precision); err != nil {
		return dst, err
	}
	dst = append(dst, `,"solveNs":`...)
	dst = strconv.AppendInt(dst, resp.SolveNs, 10)
	return append(dst, "}\n"...), nil
}

func appendBatchResponse(dst []byte, resp *BatchResponse) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if resp.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, r := range resp.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			if len(r.X) > 0 {
				dst = append(dst, `"x":`...)
				var err error
				if dst, err = appendFloats(dst, r.X); err != nil {
					return dst, err
				}
			}
			if r.Error != "" {
				if len(r.X) > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `"error":`...)
				dst = appendString(dst, r.Error)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst, err := appendTrailer(dst, resp.Family, resp.Eps, resp.N, resp.Precision)
	return append(dst, "}\n"...), err
}

// The request writers, for Client: each appends exactly json.Marshal of the
// struct.

func appendSolveRequest(dst []byte, req *SolveRequest) ([]byte, error) {
	dst, err := appendRequestHead(dst, req.Family, req.Eps, req.N, req.Accuracy)
	if err != nil {
		return dst, err
	}
	if dst, err = appendProblem(append(dst, ','), req.B, req.X); err != nil {
		return dst, err
	}
	return appendDeadline(dst, req.DeadlineMs), nil
}

func appendBatchRequest(dst []byte, req *BatchRequest) ([]byte, error) {
	dst, err := appendRequestHead(dst, req.Family, req.Eps, req.N, req.Accuracy)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"problems":`...)
	if req.Problems == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range req.Problems {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendProblem(append(dst, '{'), p.B, p.X); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return appendDeadline(dst, req.DeadlineMs), nil
}

// appendRequestHead opens a request and writes the fields both carry ahead
// of their grids.
func appendRequestHead(dst []byte, family string, eps float64, n int, accuracy float64) ([]byte, error) {
	dst, err := appendRoute(append(dst, '{'), family, eps, n)
	if err != nil {
		return dst, err
	}
	return appendFloat(append(dst, `,"accuracy":`...), accuracy)
}

// appendProblem writes one problem's grids, x only when it has values.
func appendProblem(dst []byte, b, x []float64) ([]byte, error) {
	dst, err := appendFloats(append(dst, `"b":`...), b)
	if err != nil || len(x) == 0 {
		return dst, err
	}
	return appendFloats(append(dst, `,"x":`...), x)
}

// appendDeadline writes the optional deadline and closes the request.
func appendDeadline(dst []byte, deadlineMs int64) []byte {
	if deadlineMs != 0 {
		dst = strconv.AppendInt(append(dst, `,"deadlineMs":`...), deadlineMs, 10)
	}
	return append(dst, '}')
}

// appendTrailer writes the fields both answers carry after their grids.
func appendTrailer(dst []byte, family string, eps float64, n int, precision string) ([]byte, error) {
	dst, err := appendRoute(append(dst, ','), family, eps, n)
	if precision != "" {
		dst = append(dst, `,"precision":`...)
		dst = appendString(dst, precision)
	}
	return dst, err
}

// appendRoute writes the three fields all four wire structs carry side by
// side: "family", "eps" unless zero, "n".
func appendRoute(dst []byte, family string, eps float64, n int) ([]byte, error) {
	dst = append(dst, `"family":`...)
	dst = appendString(dst, family)
	if eps != 0 {
		var err error
		if dst, err = appendFloat(append(dst, `,"eps":`...), eps); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"n":`...)
	return strconv.AppendInt(dst, int64(n), 10), nil
}

func appendFloats(dst []byte, vs []float64) ([]byte, error) {
	if vs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendFloat is encoding/json's float64 encoder (see formatFloat), written
// in place past dst's end.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, unsupportedValue(f)
	}
	n := len(dst)
	dst = slices.Grow(dst, floatTextMax)[:n+floatTextMax]
	return dst[:n+formatFloat(dst[n:], f)], nil
}

// unsupportedValue is encoding/json's error for a NaN or an infinity, which
// neither framing of an answer carries.
func unsupportedValue(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// appendString writes s as a JSON string. Text that needs no escaping under
// encoding/json's rules (which also escape <, > and &) is copied; anything
// else is encoding/json's to quote.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
