package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkToken: scanFloat takes all of tok, a JSON number, and what it decides
// itself is strconv.ParseFloat's value to the bit. It reports whether it did
// decide.
func checkToken(t testing.TB, tok []byte) (fast bool) {
	t.Helper()
	f, end, fast := scanFloat(tok, 0)
	if end != len(tok) {
		t.Fatalf("scanFloat(%q) ends at %d, want %d", tok, end, len(tok))
	}
	if !fast {
		return false
	}
	want, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("scanFloat(%q) = %v (%#x), strconv.ParseFloat = %v (%#x), %v",
			tok, f, math.Float64bits(f), want, math.Float64bits(want), err)
	}
	return true
}

// readsBackAs: tok, as the scanner reads a float field, is all one number with
// the bits of want.
func readsBackAs(t testing.TB, tok []byte, want float64) {
	t.Helper()
	s := scanner{data: tok}
	if f, ok := s.float(); !ok || s.pos != len(tok) || math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("%#x prints as %s and reads back as %#x (ok %v, %d of %d bytes)",
			math.Float64bits(want), tok, math.Float64bits(f), ok, s.pos, len(tok))
	}
}

// checkFloats: appendFloats writes vs byte for byte as json.Marshal does, and
// every value's text reads back to the same bits.
func checkFloats(t testing.TB, vs []float64) {
	t.Helper()
	got, err := appendFloats(nil, vs)
	want, wantErr := json.Marshal(vs)
	if err != nil || wantErr != nil {
		t.Fatalf("appendFloats: %v, json.Marshal: %v", err, wantErr)
	}
	if !bytes.Equal(got, want) {
		for i, v := range vs {
			g, _ := appendFloat(nil, v)
			if w, _ := json.Marshal(v); !bytes.Equal(g, w) {
				t.Fatalf("vs[%d] = %#x: appendFloat %s, json.Marshal %s", i, math.Float64bits(v), g, w)
			}
		}
		t.Fatalf("appendFloats and json.Marshal differ between values:\n got %.200s\nwant %.200s", got, want)
	}
	for i, tok := range bytes.Split(got[1:len(got)-1], []byte{','}) {
		readsBackAs(t, tok, vs[i])
	}
}

// floatClasses are the seeded populations of the differential tests.
var floatClasses = []struct {
	name string
	draw func(rng *rand.Rand) float64
}{
	{"random bits", func(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()) }},
	{"grid-like", func(rng *rand.Rand) float64 {
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(6)-3))
	}},
	// What a plan in float32 storage answers with.
	{"float32 widened", func(rng *rand.Rand) float64 { return float64(math.Float32frombits(rng.Uint32())) }},
	{"integers", func(rng *rand.Rand) float64 { return float64(int64(rng.Uint64()) >> rng.Intn(64)) }},
	{"short decimals", func(rng *rand.Rand) float64 {
		return float64(rng.Int63n(1e9)-5e8) / math.Pow(10, float64(rng.Intn(12)))
	}},
}

// finite redraws until draw gives a value JSON can carry.
func finite(rng *rand.Rand, draw func(*rand.Rand) float64) float64 {
	for {
		if f := draw(rng); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// TestFloatTextMatchesStrconv is the differential check of both directions
// against the standard library: a million seeded values of each class written
// and read back, and a million 'e' and 'g' renderings at 1–25 digits read
// (a sixteenth of each under -short).
func TestFloatTextMatchesStrconv(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n >>= 4
	}
	for _, class := range floatClasses {
		t.Run(class.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			vs := make([]float64, 1<<12)
			for done := 0; done < n; done += len(vs) {
				for i := range vs {
					vs[i] = finite(rng, class.draw)
				}
				checkFloats(t, vs)
			}
		})
	}
	t.Run("renderings", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		var buf []byte
		for i := 0; i < n; i += 2 {
			v := finite(rng, floatClasses[i/2%len(floatClasses)].draw)
			checkToken(t, strconv.AppendFloat(buf[:0], v, 'e', rng.Intn(25), 64))
			checkToken(t, strconv.AppendFloat(buf[:0], v, 'g', 1+rng.Intn(25), 64))
		}
	})
}

// TestFloatTextEdges walks the places the two algorithms change behaviour.
func TestFloatTextEdges(t *testing.T) {
	// Every binade, subnormals included, at its smallest, next and largest
	// mantissa (the smallest is where the lower neighbour is closer), both
	// signs; the zeros; the neighbours of the 'f'/'e' switch points.
	var vs []float64
	for e := uint64(0); e < 0x7FF; e++ {
		for _, m := range []uint64{0, 1, 1<<52 - 1} {
			vs = append(vs, math.Float64frombits(e<<52|m), math.Float64frombits(1<<63|e<<52|m))
		}
	}
	for _, f := range []float64{1e-6, 1e21, 1e-5, 1e20, 1e22, 1e23, 1 << 53, 1<<53 + 2, 1<<53 - 1, 5e-324, 2.2250738585072014e-308} {
		vs = append(vs, f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)), -f)
	}
	checkFloats(t, vs)

	// Tokens: whether scanFloat may decide them itself, and (in checkToken)
	// that it decides as strconv does.
	for _, tc := range []struct {
		tok  string
		fast bool
	}{
		{"0", true}, {"-0", true}, {"0.0", true}, {"-0.0e-0", true}, {"0e99999", true}, {"-0E+99999", true},
		{"0e100000", false}, {"0e-999999999999999999999999", false},
		{"1e22", true}, {"1e23", false}, {"1e24", true}, {"9007199254740991", true}, {"9007199254740992", true},
		{"9007199254740993", false}, // half-way between two floats
		{"1234567890123456789", true}, {"12345678901234567890", false},
		{"0.0000000000000000001234567890123456789", true}, {"0.00000000000000000012345678901234567890", false},
		{"0.000000000000000000000000000000", true}, {"123456789.0123456789", true}, {"123456789.01234567890", false},
		{"1e999", false}, {"-1e999", false}, {"1e-999", false}, {"1e347", false}, {"1e-348", false},
		{"1.7976931348623157e308", true}, {"1.7976931348623159e308", false}, {"2.2250738585072014e-308", true},
		{"2.225073858507201e-308", false}, {"5e-324", false}, {"1E5", true}, {"1e+5", true}, {"1e-05", true},
		{"12345678", true}, {"123456789012345678", true}, {"1234567.8", true}, {"0.12345678", true},
	} {
		if fast := checkToken(t, []byte(tc.tok)); fast != tc.fast {
			t.Errorf("scanFloat(%q): fast = %v, want %v", tc.tok, fast, tc.fast)
		}
	}
	// Not JSON numbers, or numbers followed by what the caller must refuse.
	for tok, end := range map[string]int{
		"": -1, "-": -1, ".5": -1, "+1": -1, "1.": -1, "1.e5": -1, "1e": -1, "1e+": -1, "-.5": -1, "e5": -1, "NaN": -1, "-Inf": -1,
		"01": 1, "-01": 2, "1.5.3": 3, "1e5e5": 3, "0x10": 1, "1_000": 1, "12345678,2": 8, "1234567a": 7, "0.12345678]": 10, "1e5 ": 3,
	} {
		if _, got, _ := scanFloat([]byte(tok), 0); got != end {
			t.Errorf("scanFloat(%q) ends at %d, want %d", tok, got, end)
		}
	}
}

// TestEightDigitsMatchesStrconv checks the one-store digit writer against
// strconv at every input it takes, [0, 10⁸), zero-padded to eight digits.
func TestEightDigitsMatchesStrconv(t *testing.T) {
	if testing.Short() {
		t.Skip("walks all 10⁸ inputs")
	}
	want := append(make([]byte, 0, 32), "00000000"...)
	var got [8]byte
	for x := uint32(0); x < 1e8; x++ {
		s := strconv.AppendUint(want[:8], uint64(x), 10)[8:]
		copy(want[8-len(s):8], s)
		binary.LittleEndian.PutUint64(got[:], eightDigits(x))
		if string(got[:]) != string(want[:8]) {
			t.Fatalf("eightDigits(%d) = %q, want %q", x, got[:], want[:8])
		}
	}
}

// TestPow10Table pins rows of the generated table to the constants strconv
// lists, and reaches every row from the reader with mantissas short and long.
func TestPow10Table(t *testing.T) {
	for e, want := range map[int][2]uint64{
		-348: {0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		-1:   {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		0:    {0x8000000000000000, 0},
		27:   {0xCECB8F27F4200F3A, 0},
		28:   {0x813F3978F8940984, 0x4000000000000000},
		43:   {0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		347:  {0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10tab[e-pow10Min]; got.hi != want[0] || got.lo != want[1] {
			t.Errorf("10^%d: table has %#x %#x, want %#x %#x", e, got.hi, got.lo, want[0], want[1])
		}
	}
	rng := rand.New(rand.NewSource(23))
	tokens, decided := 0, 0
	for e := pow10Min - 2; e <= pow10Max+2; e++ {
		for _, man := range []uint64{1, 9, 1 << 53, 1234567890123456789, 9999999999999999999, rng.Uint64() >> 1, rng.Uint64() >> 12} {
			tokens++
			if checkToken(t, fmt.Appendf(nil, "%de%d", man, e)) {
				decided++
			}
		}
	}
	// The rest under- or overflow, or sit on a rounding boundary.
	if decided*4 < tokens*3 {
		t.Errorf("scanFloat decided only %d of the sweep's %d tokens itself", decided, tokens)
	}
}

// TestGridValuesStayOffStrconv: the values a served grid carries are decided
// by scanFloat itself. A reader that always fell back would pass every
// differential test and lose the point of having one.
func TestGridValuesStayOffStrconv(t *testing.T) {
	vs := gridLikeFloats(257 * 257)
	text, _ := appendFloats(nil, vs)
	slow := 0
	for _, tok := range bytes.Split(text[1:len(text)-1], []byte{','}) {
		if !checkToken(t, tok) {
			slow++
		}
	}
	if slow*100 >= len(vs) {
		t.Errorf("%d of %d grid values went to strconv.ParseFloat, want under 1%%", slow, len(vs))
	}
}

// FuzzParseFloatToken: whatever prefix of the input scanFloat takes is a JSON
// number with strconv's value, all of it when all of it is one, and a body
// carrying the input as a number decodes as encoding/json decides.
func FuzzParseFloatToken(f *testing.F) {
	for _, s := range []string{"0", "-0", "1", "-1.5e-7", "0.000001", "1e21", "123456789012345678901234567890", "1e999", "0e99999",
		"9007199254740993", "2.2250738585072011e-308", "01", "1.", ".5", "1e", "0x10", "1_0", "Inf", "12345678.12345678e+12", "1E400"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		isNumber := func(b []byte) bool {
			return len(b) > 0 && (b[0] == '-' || b[0]-'0' <= 9) && b[len(b)-1]-'0' <= 9 && json.Valid(b)
		}
		_, end, _ := scanFloat(tok, 0)
		switch {
		case end < 0 && isNumber(tok), end >= 0 && end < len(tok) && isNumber(tok):
			t.Fatalf("scanFloat(%q) ends at %d, but all of it is a JSON number", tok, end)
		case end > len(tok), end >= 0 && !isNumber(tok[:end]):
			t.Fatalf("scanFloat(%q) ends at %d, which is not the end of a JSON number", tok, end)
		case end >= 0:
			checkToken(t, tok[:end])
		}
		body := append(append([]byte(`{"eps":`), tok...), `,"b":[1,`...)
		body = append(append(body, tok...), `]}`...)
		checkDecode(t, body, (*scanner).solveRequest)
	})
}

// FuzzAppendFloat: every float64 is written as encoding/json writes it (or
// refused with its error), and the text reads back to the same bits.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range wireFloats {
		f.Add(math.Float64bits(v))
	}
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		got, err := appendFloat(nil, v)
		want, wantErr := json.Marshal(v)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("appendFloat(%#x): err = %v, want %v", b, err, wantErr)
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#x) = %s, %v; json.Marshal %s", b, got, err, want)
		}
		readsBackAs(t, got, v)
	})
}
