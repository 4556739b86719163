package serve

// The grid framing of answers (layout: protocol.go): the server-side writer,
// which streams the solution out of the request's arena through one pooled
// chunk, and the client's reader of solve answers. It is chosen by the
// request's Accept header and announced by the answer's Content-Type, nothing
// else; JSON (codec.go) stays the default framing and the oracle — the same
// request answers with the same bits either way (TestFramingsAgree).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

const (
	jsonMediaType = "application/json"
	gridMediaType = "application/x-pbmg-grid"

	gridMagic   = "PBMG"
	gridVersion = 1
	gridHeadLen = 10 // magic, version, kind, envelope length

	kindSolve = 1 // the envelope is a SolveResponse; one grid follows
	kindBatch = 2 // the envelope is a BatchResponse; one grid per result follows

	// chunkValues is how many 8-byte words (grid values and counts) one Write
	// of a streamed answer carries: what a slow client makes the server hold.
	chunkValues = 8192
)

var chunkPool = sync.Pool{New: func() any { return new([8 * chunkValues]byte) }}

// acceptsGrid reports whether a request's Accept header lists the grid media
// type: a token match over the comma-separated list, parameters ignored but
// for a zero q, which refuses it. No preference order: a client that lists
// the type gets it.
func acceptsGrid(h http.Header) bool {
	for _, line := range h.Values("Accept") {
		for item := range strings.SplitSeq(line, ",") {
			if mt, params, err := mime.ParseMediaType(item); err == nil && mt == gridMediaType {
				q, given := params["q"]
				return !given || strings.Trim(q, "0.") != ""
			}
		}
	}
	return false
}

// frameAnswer starts a grid-framed answer: the grids (a failed batch slot's is
// empty) are vetted and the head — header and envelope, the codec writer's
// output for the answer with its grids left out — is built in the chunk that
// will carry the values. Everything that can fail happens here, before the
// status line: a value the frame must not carry, or an envelope JSON cannot,
// is answered with the JSON framing's 500 and the zero answer returned.
func frameAnswer(w http.ResponseWriter, kind byte, grids [][]float64, envelope func(dst []byte) ([]byte, error)) answer {
	for _, g := range grids {
		if i := firstNonFinite(g); i >= 0 {
			encodeFailed(w, unsupportedValue(g[i]))
			return answer{}
		}
	}
	chunk := chunkPool.Get().(*[8 * chunkValues]byte)
	head := append(chunk[:0], gridMagic...)
	head, err := envelope(append(head, gridVersion, kind, 0, 0, 0, 0))
	if err != nil {
		chunkPool.Put(chunk)
		encodeFailed(w, err)
		return answer{}
	}
	binary.LittleEndian.PutUint32(head[6:], uint32(len(head)-gridHeadLen))
	return answer{chunk: chunk, head: head, grids: grids}
}

// stream sends a grid-framed answer: the head in one Write, then every grid's
// count and values converted through the chunk, one Write per full chunk. It
// takes over the request's arena, which the grids alias, and returns it to its
// pool once the last chunk is converted, before that chunk is written: a slow
// client holds one chunk and nothing else. A failed Write means the client is
// gone; the conversion runs on into a chunk nobody reads.
func (a *answer) stream(w http.ResponseWriter, arena *[]float64) {
	size := len(a.head)
	for _, g := range a.grids {
		size += 8 + 8*len(g)
	}
	h := w.Header()
	h.Set("Content-Type", gridMediaType)
	h.Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(a.head)

	buf := a.chunk[:0]
	room := func() int { // in words, after sending a full chunk on its way
		if len(buf) == cap(buf) {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
		return (cap(buf) - len(buf)) / 8
	}
	for _, g := range a.grids {
		room()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(g)))
		for len(g) > 0 {
			k := min(len(g), room())
			for _, v := range g[:k] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			g = g[k:]
		}
	}
	a.grids = nil
	arenaPool.Put(arena)
	if err == nil {
		_, _ = w.Write(buf)
	}
	chunkPool.Put(a.chunk)
}

// openGridAnswer checks the header of a grid-framed answer of the given kind,
// decodes its envelope into v with v's scanner method, and returns the grids
// behind it.
func openGridAnswer[T any](data []byte, kind byte, v *T, scan func(*scanner, *T) bool) (grids []byte, err error) {
	if len(data) < gridHeadLen || string(data[:4]) != gridMagic {
		return nil, errors.New("serve: grid answer: no " + gridMagic + " header")
	}
	if data[4] != gridVersion || data[5] != kind {
		return nil, fmt.Errorf("serve: grid answer: version %d kind %d, want version %d kind %d", data[4], data[5], gridVersion, kind)
	}
	n, rest := uint64(binary.LittleEndian.Uint32(data[6:])), data[gridHeadLen:]
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("serve: grid answer: envelope of %d bytes, %d remain", n, len(rest))
	}
	if err := decodeWire(rest[:n], nil, v, scan); err != nil {
		return nil, fmt.Errorf("serve: grid answer: envelope: %w", err)
	}
	return rest[n:], nil
}

// readGrid takes one grid off the front of data: its count, checked against
// the bytes that remain before anything is allocated for it, and its values.
// An empty grid is nil, like a batch result's absent "x".
func readGrid(data []byte) (g []float64, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("serve: grid answer: %d bytes where a grid's count should be", len(data))
	}
	count, data := binary.LittleEndian.Uint64(data), data[8:]
	if count > uint64(len(data))/8 {
		return nil, nil, fmt.Errorf("serve: grid answer: grid of %d values, %d bytes remain", count, len(data))
	}
	if count == 0 {
		return nil, data, nil
	}
	g = make([]float64, count)
	for i := range g {
		g[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return g, data[8*count:], nil
}

// gridsEnd refuses bytes behind an answer's last grid.
func gridsEnd(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("serve: grid answer: %d bytes behind the last grid", len(rest))
	}
	return nil
}

// decodeGridSolve reads a grid-framed /v1/solve answer.
func decodeGridSolve(data []byte, out *SolveResponse) error {
	rest, err := openGridAnswer(data, kindSolve, out, (*scanner).solveResponse)
	if err != nil {
		return err
	}
	if out.X, rest, err = readGrid(rest); err != nil {
		return err
	}
	return gridsEnd(rest)
}
