package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// wireFloats is the float population the codec must carry exactly: both
// zeros, both sides of encoding/json's 'f'/'e' switch at 1e-6 and 1e21, the
// e-09 → e-9 clean-up, denormals and the extremes.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 123456789.125,
	1e-7, -1e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6,
	1e-9, 1.5e-9, 1e-10, 1e-100,
	9.999999999999999e20, 1e21, -1e21, 1.2345678901234567e22,
	-0.0000012345678901234567,
	math.SmallestNonzeroFloat64, 2.225073858507201e-308, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64,
}

func randomFloats(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		for {
			vs[i] = math.Float64frombits(rng.Uint64())
			if !math.IsNaN(vs[i]) && !math.IsInf(vs[i], 0) {
				break
			}
		}
	}
	return vs
}

var solveResponses = []SolveResponse{
	{},
	{X: []float64{}, Family: "poisson", N: 3},
	{X: wireFloats, Family: "poisson", N: 17, Precision: "mixed", SolveNs: 123456789},
	{X: wireFloats, Family: "aniso", Eps: 0.01, N: 17, SolveNs: -1},
	{X: []float64{1}, Family: "aniso", Eps: math.Copysign(0, -1), N: 3, Precision: "f32"},
	{X: []float64{1}, Family: "aniso", Eps: 1e-7, N: 3, Precision: "f64"},
	{X: randomFloats(500, 1), Family: `a"b\c<d>&e` + "\u2028\x01\xff é", Eps: 1e21, N: -4},
}

var batchResponses = []BatchResponse{
	{},
	{Results: []BatchResult{}, Family: "poisson", N: 9},
	{Results: []BatchResult{{}}, Family: "poisson", N: 9},
	{Results: []BatchResult{{X: []float64{}}, {X: []float64{}, Error: "both empty x and an error"}}},
	{
		Results: []BatchResult{
			{X: wireFloats},
			{Error: "serve: b has 7 values, family poisson at n=17 needs 289"},
			{X: []float64{1, 2}, Error: `x and "error" <together>`},
			{X: randomFloats(300, 2)},
		},
		Family: "poisson3d", Eps: 2.5, N: 17, Precision: "f32",
	},
}

// TestEncodeMatchesEncodingJSON: the writers emit byte for byte what
// json.NewEncoder(w).Encode emitted before them.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	want := func(v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	for i := range solveResponses {
		got, err := appendSolveResponse(nil, &solveResponses[i])
		if w := want(solveResponses[i]); err != nil || !bytes.Equal(got, w) {
			t.Errorf("SolveResponse %d: err=%v\n got %.300s\nwant %.300s", i, err, got, w)
		}
	}
	for i := range batchResponses {
		got, err := appendBatchResponse(nil, &batchResponses[i])
		if w := want(batchResponses[i]); err != nil || !bytes.Equal(got, w) {
			t.Errorf("BatchResponse %d: err=%v\n got %.300s\nwant %.300s", i, err, got, w)
		}
	}
	// Appending keeps what the buffer already held.
	got, _ := appendSolveResponse([]byte("prefix"), &solveResponses[2])
	if w := append([]byte("prefix"), want(solveResponses[2])...); !bytes.Equal(got, w) {
		t.Errorf("append to a non-empty buffer:\n got %.100s\nwant %.100s", got, w)
	}
}

// TestEncodeRejectsNonFinite: a value JSON cannot carry is the error
// encoding/json reports, wherever it sits.
func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, wantErr := json.Marshal([]float64{bad})
		for name, encode := range map[string]func() ([]byte, error){
			"solve x": func() ([]byte, error) {
				return appendSolveResponse(nil, &SolveResponse{X: []float64{1, bad, 2}, Family: "poisson"})
			},
			"solve eps": func() ([]byte, error) {
				return appendSolveResponse(nil, &SolveResponse{X: []float64{1}, Eps: bad})
			},
			"batch x": func() ([]byte, error) {
				return appendBatchResponse(nil, &BatchResponse{Results: []BatchResult{{X: []float64{1}}, {X: []float64{bad}}}})
			},
			"batch eps": func() ([]byte, error) {
				return appendBatchResponse(nil, &BatchResponse{Eps: bad})
			},
		} {
			if _, err := encode(); err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s with %v: err = %v, want %v", name, bad, err, wantErr)
			}
		}

		// The grid framing refuses the same values, with the same 500, before
		// anything of the answer is sent: in a grid (vetted, the envelope never
		// built) and in the envelope (the codec writer's own error).
		for name, tc := range map[string]struct {
			grids [][]float64
			eps   float64
		}{
			"grid solve x":   {[][]float64{{1, bad, 2}}, 0},
			"grid batch x":   {[][]float64{{1}, nil, {2, bad}}, 0},
			"grid solve eps": {[][]float64{{1}}, bad},
		} {
			rec := httptest.NewRecorder()
			a := frameAnswer(rec, kindSolve, tc.grids, func(dst []byte) ([]byte, error) {
				return appendSolveResponse(dst, &SolveResponse{X: []float64{}, Eps: tc.eps})
			})
			var er ErrorResponse
			if a.grids != nil || a.chunk != nil || rec.Code != http.StatusInternalServerError ||
				json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error != "serve: encoding answer: "+wantErr.Error() {
				t.Errorf("%s with %v: HTTP %d %q, want 500 with %v and nothing to stream", name, bad, rec.Code, rec.Body.String(), wantErr)
			}
		}
	}
}

// decodeInputs are bodies both codecs must agree on, as accepted or as
// rejected. Each is tried against the three wire structs the codec reads.
var decodeInputs = []string{
	// The plain shape, keys in and out of struct order, with whitespace.
	`{"family":"poisson","n":3,"accuracy":1000,"b":[1,2,3,4,5,6,7,8,9]}`,
	`{"b":[1,2.5,-3e-7],"x":[0,-0,1e21],"deadlineMs":250,"accuracy":1e5,"n":17,"eps":0.01,"family":"aniso"}`,
	" \t\r\n{ \"family\" : \"poisson\" ,\n\t\"n\" : 3 , \"b\" : [ 1 , 2 ,\n3 ] , \"x\" : [ ] }\r\n ",
	`{"family":"poisson","eps":0.5,"n":17,"accuracy":10,"problems":[{"b":[1,2],"x":[3,4]},{"b":[5]},{}],"deadlineMs":9}`,
	`{"problems":[],"family":"poisson"}`,
	`{"x":[1,2,3],"family":"poisson","eps":0.25,"n":3,"precision":"mixed","solveNs":12345}`,
	`{"results":[{"x":[1,2]},{"error":"serve: b has 7 values"},{"x":[],"error":""},{}],"family":"poisson","n":17,"precision":"f32"}`,
	`{}`, ` { } `, `{"x":[]}`, `{"b":[],"x":[]}`,
	// Accepted by encoding/json, declined by the scanner.
	`null`, ` null `,
	`{"family":null,"n":null,"b":null,"x":null,"problems":null,"results":null}`,
	`{"b":[1,null,3]}`, `{"x":[null]}`,
	`{"Family":"poisson","N":3,"B":[1,2]}`, `{"FAMILY":"poisson","family":"aniso"}`,
	`{"family":"poisson","family":"aniso"}`, `{"b":[1,2],"b":[3]}`, `{"x":[1,2,3],"x":[4]}`, `{"n":1,"n":2}`,
	`{"problems":[{"b":[1]}],"problems":[{"x":[2]}]}`, `{"problems":[{"b":[1],"b":[2,3]}]}`,
	`{"results":[{"x":[1]}],"results":[]}`, `{"results":[{"error":"a","error":"b"}]}`,
	`{"family":"pois\u0073on"}`, `{"family":"a\"b"}`, `{"family":"a\\b"}`, `{"family":"caf\u00e9"}`, `{"family":"café"}`,
	"{\"family\":\"a\xffb\"}", `{"f\u0061mily":"poisson"}`, `{"results":[{"error":"tab\there"}]}`,
	`{"unknown":{"nested":[1,{"a":"b"}]},"family":"poisson"}`, `{"family":"poisson","extra":1}`,
	`{"n":-0}`, `{"n":0}`, `{"deadlineMs":-5}`, `{"solveNs":9223372036854775807}`, `{"n":9223372036854775807}`,
	`{"eps":-0}`, `{"eps":0.0}`, `{"eps":1E5}`, `{"eps":1e+5}`, `{"eps":1e-999}`, `{"accuracy":5e-324}`,
	`{"b":[1.7976931348623157e308,-1.7976931348623157e+308,4.9e-324,0.1e1,0e0,-0.0]}`,
	`{"x":[0.1000000000000000055511151231257827021181583404541015625]}`,
	`{"b":[123456789012345678901234567890123456789012345678901234567890]}`,
	// Rejected by encoding/json.
	``, ` `, `{`, `}`, `[`, `[]`, `"poisson"`, `1`, `{"family"}`, `{"family":}`, `{"family":"poisson"`, `{"family":"poisson",}`,
	`{,}`, `{"b":[1,]}`, `{"b":[,1]}`, `{"b":[1 2]}`, `{"b":[1,2}`, `{"b":[1,2]]}`, `{"b":1}`, `{"b":"1"}`, `{"b":[[1]]}`, `{"b":["1"]}`, `{"b":{}}`,
	`{"family":"poisson"} x`, `{"family":"poisson"}{}`, `{"family":"poisson"},`, "{\"family\":\"poisson\"}\x00", `{"b":[1,2,3]}]`,
	`{"b":[1e999]}`, `{"x":[-1e999]}`, `{"eps":1e999}`, `{"accuracy":1e400}`, `{"results":[{"x":[1e999]}]}`, `{"problems":[{"b":[1e999]}]}`,
	`{"b":[01]}`, `{"b":[1.]}`, `{"b":[.5]}`, `{"b":[+1]}`, `{"b":[-]}`, `{"b":[1e]}`, `{"b":[1e+]}`, `{"b":[1.e5]}`, `{"b":[--1]}`, `{"b":[-01]}`,
	`{"b":[0x10]}`, `{"b":[1_000]}`, `{"b":[Infinity]}`, `{"b":[NaN]}`, `{"b":[Inf]}`, `{"b":[1.5.3]}`, `{"b":[1e5e5]}`, `{"b":[00]}`,
	`{"n":1.0}`, `{"n":1e2}`, `{"n":1.5}`, `{"n":9223372036854775808}`, `{"n":"3"}`, `{"deadlineMs":1.0}`, `{"solveNs":1e3}`, `{"n":-}`,
	`{"family":1}`, `{"family":["poisson"]}`, "{\"family\":\"a\nb\"}", "{\"family\":\"a\x01b\"}", `{"family":"a\qb"}`, `{"family":"poisson}`,
	`{"problems":[1]}`, `{"problems":{}}`, `{"problems":[{"b":[1]},]}`, `{"problems":[{"b":[1]}`, `{"results":[[]]}`, `{"results":[{"error":1}]}`,
	`{"family":"poisson" "n":3}`, `{"family" "poisson"}`, `{family:"poisson"}`, `{'family':'poisson'}`, `{"b":[1,2,3],"n":tru}`, `{"n":true}`,
}

// checkDecode decodes data with one of the codec's readers and with
// json.Unmarshal: both reject, or both accept with equal values. And the
// scanner, cutting arrays at every comma and at the first comma 7 bytes on,
// reads data as it reads it whole.
func checkDecode[T any](t testing.TB, data []byte, scan func(*scanner, *T) bool) {
	t.Helper()
	var arena []float64
	var got, want T
	gotErr := decodeWire(data, &arena, &got, scan)
	if cap(arena) > len(data) {
		t.Fatalf("arena of %d values for a %d-byte body: allocation must stay bounded by the input", cap(arena), len(data))
	}
	wantErr := json.Unmarshal(data, &want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%T %q: codec err = %v, encoding/json err = %v", got, data, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%T %q: codec err = %v, encoding/json err = %v", got, data, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T %q:\n codec         %+v\n encoding/json %+v", got, data, got, want)
	}
	checkSplit(t, data, scan, 1, 7)
}

// checkSplit scans data whole and with its arrays cut into pieces of each
// given size: the scanner takes or declines it alike, to the same bits (%v
// prints every float64 but NaN, which JSON cannot carry, distinctly).
func checkSplit[T any](t testing.TB, data []byte, scan func(*scanner, *T) bool, pieces ...int) (whole T, taken bool) {
	t.Helper()
	s := scanner{data: data, floats: floatArena(nil, data)}
	taken = scan(&s, &whole) && s.end()
	for _, piece := range pieces {
		s = scanner{data: data, floats: floatArena(nil, data), piece: piece}
		var cut T
		if ok := scan(&s, &cut) && s.end(); ok != taken || ok && fmt.Sprint(cut) != fmt.Sprint(whole) {
			t.Fatalf("%T %q in pieces of %d: taken %v, whole: taken %v\n cut   %v\n whole %v", cut, data, piece, ok, taken, cut, whole)
		}
	}
	return whole, taken
}

func checkDecodeAll(t testing.TB, data []byte) {
	t.Helper()
	checkDecode(t, data, (*scanner).solveRequest)
	checkDecode(t, data, (*scanner).batchRequest)
	checkDecode(t, data, (*scanner).solveResponse)
}

// TestDecodeMatchesEncodingJSON: the readers accept, reject and decode
// exactly as json.Unmarshal does.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, in := range decodeInputs {
		checkDecodeAll(t, []byte(in))
	}
	// Everything the writers and json.Marshal emit reads back.
	for _, body := range marshalledBodies(t) {
		checkDecodeAll(t, body)
	}
}

// TestDecodeRandomBodies is the structure-aware half of the differential
// check (the fuzz targets mutate bytes): seeded random bodies built from the
// wire structs' own keys and value shapes, salted with every deviation the
// scanner must decline — wrong types, odd number tokens, escapes, repeated,
// unknown and wrong-case keys, stray or missing punctuation.
func TestDecodeRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(20090101))
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }
	space := func() string { return pick("", "", "", " ", "\n\t", "\r\n  ") }
	// mostly returns good, one time in forty one of the deviations.
	mostly := func(good string, bad ...string) string {
		if rng.Intn(40) == 0 {
			return pick(bad...)
		}
		return good
	}
	number := func() string {
		if rng.Intn(20) == 0 {
			return pick("01", "1.", ".5", "+1", "-", "1e", "1e+", "1e999", "-1e999", "0x10", "NaN", "1_0", "1e-999", "-0", "0e0", "1E+2", "12345678901234567890")
		}
		return string(mustAppendFloat(randomFloats(1, rng.Int63())[0]))
	}
	str := func() string {
		return pick(`"poisson"`, `"aniso"`, `""`, `"f32"`, `"serve: b has 7 values"`, `"a\"b"`, `"caf\u00e9"`, `"café"`, "\"a\tb\"", "\"a\xffb\"", `"<&>"`)
	}
	var value func(depth int) string
	floats := func() string {
		var b bytes.Buffer
		b.WriteString("[" + space())
		for i, n := 0, rng.Intn(5); i < n; i++ {
			if i > 0 {
				b.WriteString(space() + mostly(",", "", ",,") + space())
			}
			if rng.Intn(40) == 0 {
				b.WriteString(value(3))
			} else {
				b.WriteString(number())
			}
		}
		return b.String() + space() + mostly("]", "", ",]", "]]")
	}
	object := func(depth int, keys ...string) string {
		var b bytes.Buffer
		b.WriteString("{" + space())
		for i, n := 0, rng.Intn(len(keys)+2); i < n; i++ {
			if i > 0 {
				b.WriteString(space() + mostly(",", "", ";") + space())
			}
			key := keys[rng.Intn(len(keys))]
			switch rng.Intn(24) {
			case 0:
				key = pick("extra", "Family", "B", "X", "N", "SOLVENS", "deadlinems", `f\u0061mily`, "")
			}
			b.WriteString(`"` + key + `"` + space() + mostly(":", "", "=") + space())
			if rng.Intn(30) == 0 {
				b.WriteString(value(depth + 1))
				continue
			}
			switch key {
			case "family", "precision", "error":
				b.WriteString(str())
			case "b", "x":
				b.WriteString(floats())
			case "problems", "results":
				b.WriteString("[")
				for j, m := 0, rng.Intn(3); j < m; j++ {
					if j > 0 {
						b.WriteString(",")
					}
					b.WriteString(value(depth + 1))
				}
				b.WriteString("]")
			default:
				b.WriteString(number())
			}
		}
		return b.String() + space() + mostly("}", "", "}}", ",}")
	}
	value = func(depth int) string {
		kinds := 9
		if depth > 2 {
			kinds = 4 // leaves only
		}
		switch rng.Intn(kinds) {
		case 0:
			return pick("null", "true", "false", "nul", "{}", "[]")
		case 1:
			return str()
		case 2:
			return number()
		case 3:
			return floats()
		case 4:
			return object(depth, "b", "x")
		case 5:
			return object(depth, "x", "error")
		}
		return object(depth, "family", "eps", "n", "accuracy", "b", "x", "deadlineMs", "problems", "results", "precision", "solveNs")
	}
	for i := 0; i < 30000; i++ {
		body := space() + value(0) + mostly(space(), "x", "{}", ",", "\x00")
		checkDecodeAll(t, []byte(body))
	}
}

func mustAppendFloat(f float64) []byte {
	b, err := appendFloat(nil, f)
	if err != nil {
		panic(err)
	}
	return b
}

// marshalledBodies are json.Marshal's renderings of all four wire structs.
func marshalledBodies(t testing.TB) [][]byte {
	t.Helper()
	var vs []any
	for _, r := range solveResponses {
		vs = append(vs, r)
	}
	for _, r := range batchResponses {
		vs = append(vs, r)
	}
	vs = append(vs,
		SolveRequest{Family: "poisson", N: 17, Accuracy: 1e5, B: wireFloats},
		SolveRequest{Family: "aniso", Eps: 0.01, N: 17, Accuracy: 1e9, B: randomFloats(289, 3), X: wireFloats, DeadlineMs: 1500},
		BatchRequest{Family: "poisson", N: 17, Accuracy: 10},
		BatchRequest{Family: "poisson3d", Eps: 1, N: 9, Accuracy: 1e3, DeadlineMs: 20,
			Problems: []BatchProblem{{B: wireFloats, X: randomFloats(40, 4)}, {B: []float64{7}}, {}}},
	)
	var out [][]byte
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestScannerTakesThePlainShape: the bodies clients actually send are
// decoded by the scanner itself, not by the encoding/json bail-out (which
// would keep every other test green while losing the point of the codec),
// and at a fixed allocation count however large the grids are.
func TestScannerTakesThePlainShape(t *testing.T) {
	solveReq, _ := json.Marshal(SolveRequest{Family: "aniso", Eps: 0.01, N: 65, Accuracy: 1e5, B: randomFloats(65*65, 5), X: randomFloats(65*65, 6), DeadlineMs: 100})
	batchReq, _ := json.Marshal(BatchRequest{Family: "poisson", N: 17, Accuracy: 10, Problems: []BatchProblem{{B: randomFloats(289, 7)}, {B: randomFloats(289, 8), X: wireFloats}}})
	solveResp, _ := appendSolveResponse(nil, &SolveResponse{X: randomFloats(65*65, 9), Family: "poisson", N: 65, Precision: "f32", SolveNs: 5})
	indented, _ := json.MarshalIndent(SolveRequest{Family: "poisson", N: 3, Accuracy: 10, B: wireFloats}, "", "  ")

	for _, tc := range []struct {
		name string
		data []byte
		scan func(*scanner) bool
	}{
		{"SolveRequest", solveReq, func(s *scanner) bool { return s.solveRequest(new(SolveRequest)) && s.end() }},
		{"SolveRequest indented", indented, func(s *scanner) bool { return s.solveRequest(new(SolveRequest)) && s.end() }},
		{"BatchRequest", batchReq, func(s *scanner) bool { return s.batchRequest(new(BatchRequest)) && s.end() }},
		{"SolveResponse", solveResp, func(s *scanner) bool { return s.solveResponse(new(SolveResponse)) && s.end() }},
	} {
		if !tc.scan(&scanner{data: tc.data, floats: floatArena(nil, tc.data)}) {
			t.Errorf("%s: the scanner declined a body in the plain shape", tc.name)
		}
	}

	arena := floatArena(nil, solveReq)
	var req SolveRequest
	allocs := testing.AllocsPerRun(20, func() {
		if err := decodeWire(solveReq, &arena, &req, (*scanner).solveRequest); err != nil {
			t.Fatal(err)
		}
	})
	// The family string, and the closure of the field switch.
	if allocs > 4 {
		t.Errorf("decoding a %d-byte SolveRequest into a sized arena allocates %.0f times, want a handful", len(solveReq), allocs)
	}
}

// TestSplitDecodeAllocates: a body whose grid is cut into pieces decodes into a
// sized arena at a fixed allocation count whatever the cores — the piece
// table, the claim cursor and one claim closure however many helpers share
// them — to the bits it was written from.
func TestSplitDecodeAllocates(t *testing.T) {
	b := gridLikeFloats(257 * 257)
	body, _ := json.Marshal(SolveRequest{Family: "poisson", N: 257, Accuracy: 1e5, B: b})
	text := body[bytes.IndexByte(body, '[')+1 : bytes.IndexByte(body, ']')]
	if len(text) < 4*pieceBytes {
		t.Fatalf("a %d-byte grid is cut into fewer than four pieces of %d", len(text), pieceBytes)
	}
	arena := floatArena(nil, body)
	var req SolveRequest
	allocs := testing.AllocsPerRun(20, func() {
		if err := decodeWire(body, &arena, &req, (*scanner).solveRequest); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("decoding a %d-byte SolveRequest into a sized arena allocates %.0f times at GOMAXPROCS %d, want at most 6",
			len(body), allocs, runtime.GOMAXPROCS(0))
	}
	if !sameFloatBits(req.B, b) {
		t.Error("the cut grid does not read back to the bits it was written from")
	}
}

// FuzzSplitFloats: an array's text cut into pieces of any size reads as it
// reads whole — the scanner takes or declines it alike, to the same bits — and
// what the scanner takes json.Unmarshal reads to those bits too.
func FuzzSplitFloats(f *testing.F) {
	for i, vs := range [][]float64{wireFloats, randomFloats(300, 14), gridLikeFloats(300)} {
		text, _ := json.MarshalIndent(vs, "", strings.Repeat(" ", i))
		f.Add(text[1:len(text)-1], uint16(0))
		f.Add(text[1:len(text)-1], uint16(6))
	}
	for _, text := range []string{"", " ", "1", "1,", ",1", "1,,2", "1 2", " 1 , 2 ,\n3 ", "1\t,\r2", "1,2]", "[1],2", "1],[2",
		"1,null", `1,"2"`, "1,{}", "01,1", "1,1.", "1e999,1", "-0,0,1e-400,4.9e-324", "1,2,3,", "0.1000000000000000055511151231257827021181583404541015625,2"} {
		f.Add([]byte(text), uint16(0))
	}
	f.Fuzz(func(t *testing.T, text []byte, size uint16) {
		body := append(append([]byte(`{"b":[`), text...), `],"x":[1]}`...)
		got, taken := checkSplit(t, body, (*scanner).solveRequest, 1+int(size)%(len(text)+1))
		var want SolveRequest
		if err := json.Unmarshal(body, &want); taken && (err != nil || !sameFloatBits(want.B, got.B) || !sameFloatBits(want.X, got.X)) {
			t.Fatalf("%q: the scanner took %v, encoding/json reads %v (%v)", text, got.B, want.B, err)
		}
	})
}

func addDecodeSeeds(f *testing.F) {
	for _, in := range decodeInputs {
		f.Add([]byte(in))
	}
	for _, body := range marshalledBodies(f) {
		f.Add(body)
	}
}

// FuzzDecodeSolveRequest: on any input the solve readers never panic, size
// their arena within the input's length, and agree with json.Unmarshal on
// accept/reject and on the decoded value.
func FuzzDecodeSolveRequest(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, (*scanner).solveRequest)
		checkDecode(t, data, (*scanner).solveResponse)
	})
}

// FuzzDecodeBatchRequest is FuzzDecodeSolveRequest for the batch request
// reader.
func FuzzDecodeBatchRequest(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, (*scanner).batchRequest) })
}

// The codec against encoding/json on one N=257 grid, the size of the repo
// benchmark's http-large-grid bodies:
//
//	go test -run '^$' -bench Codec -benchmem ./serve
func BenchmarkCodecDecodeSolveRequest(b *testing.B) {
	body, _ := json.Marshal(SolveRequest{Family: "poisson", N: 257, Accuracy: 1e5, B: gridLikeFloats(257 * 257)})
	// Per value, this row is the whole reader on GOMAXPROCS cores, and parse
	// below the token conversion alone on one. Compare -cpu 1 and -cpu 2 as two
	// commands: given a -cpu list, sub-benchmarks did not run at the
	// GOMAXPROCS their names say.
	b.Run("codec", func(b *testing.B) {
		var arena []float64
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var req SolveRequest
			if err := decodeWire(body, &arena, &req, (*scanner).solveRequest); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*257*257), "ns/value")
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var req SolveRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The client's side of the grid framing: the same grid as an answer's
	// bytes, read into an array of its own (decodeWire above reuses its arena).
	b.Run("decode-grid", func(b *testing.B) {
		frame := solveAnswerBytes(b, SolveResponse{X: gridLikeFloats(257 * 257), Family: "poisson", N: 257, Precision: "f32", SolveNs: 4e6}).body.Bytes()
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			var resp SolveResponse
			if err := decodeGridSolve(frame, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The float half alone: scanFloat over the grid's tokens, per value.
	b.Run("parse", func(b *testing.B) {
		text := body[bytes.IndexByte(body, '[')+1 : bytes.IndexByte(body, ']')+1]
		values := 0
		for b.Loop() {
			for i := 0; i < len(text); i++ { // over the ',' or ']' behind each token
				_, end, fast := scanFloat(text, i)
				if !fast {
					b.Fatalf("scanFloat left %q to strconv", text[i:end])
				}
				i = end
				values++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(values), "ns/value")
	})
}

func BenchmarkCodecEncodeSolveResponse(b *testing.B) {
	resp := SolveResponse{X: gridLikeFloats(257 * 257), Family: "poisson", N: 257, Precision: "f32", SolveNs: 4e6}
	b.Run("codec", func(b *testing.B) {
		var buf []byte
		for b.Loop() {
			var err error
			if buf, err = appendSolveResponse(buf[:0], &resp); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	// The same answer in the grid framing, as the handlers send it: vetted,
	// framed and streamed through the pooled chunk.
	b.Run("encode-grid", func(b *testing.B) {
		w := &discardWriter{header: make(http.Header)}
		env, arena := resp, new([]float64)
		env.X = []float64{}
		for b.Loop() {
			a := frameAnswer(w, kindSolve, [][]float64{resp.X}, func(dst []byte) ([]byte, error) { return appendSolveResponse(dst, &env) })
			a.stream(w, arena) // which puts the arena back: take one out again
			arena = arenaPool.Get().(*[]float64)
		}
		b.SetBytes(int64(w.n / b.N))
	})
	// The float half alone: formatFloat into one window, per value.
	b.Run("print", func(b *testing.B) {
		var window [floatTextMax]byte
		for b.Loop() {
			for _, v := range resp.X {
				formatFloat(window[:], v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(resp.X)), "ns/value")
	})
}

// gridLikeFloats draws values shaped like a served grid: full 17-digit
// mantissas of moderate magnitude.
func gridLikeFloats(n int) []float64 {
	rng := rand.New(rand.NewSource(11))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(6)-3))
	}
	return vs
}
