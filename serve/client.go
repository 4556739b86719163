package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
)

// StatusError is a non-2xx answer from the serving front end, carrying
// the status code (429 queue full, 503 shed/draining, 404 unroutable, 400
// bad request) and the Retry-After hint when the server sent one.
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter int // seconds; 0 when absent
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Msg)
}

// Client posts solves to a serve.Server. The zero HTTP client is usable;
// mass load drivers should supply one with MaxIdleConnsPerHost sized to their
// concurrency.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// statusError reads a non-2xx answer. Error bodies are small: reading up to
// the bound normally reaches EOF, which keeps the connection reusable.
func statusError(resp *http.Response) error {
	se := &StatusError{Code: resp.StatusCode}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		se.RetryAfter = ra
	}
	var body ErrorResponse
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(raw, &body); err == nil && body.Error != "" {
		se.Msg = body.Error
	} else {
		se.Msg = resp.Status
	}
	return se
}

// SolveBytes posts a pre-marshaled SolveRequest — the load-driver fast
// path, keeping request encoding off the measured latency. It asks for the
// answer's grid as bytes (protocol.go) and reads whichever framing the
// server answers in, picked by the answer's Content-Type (parameters
// ignored); any other type is an error naming it, not a syntax error from
// the wrong decoder. A non-2xx answer comes back as *StatusError. The body
// is always read to EOF before it is closed: net/http reuses a keep-alive
// connection only then, and a JSON decoder that stops at the closing brace
// leaves a chunked answer's terminator unread.
func (c *Client) SolveBytes(ctx context.Context, body []byte) (*SolveResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", jsonMediaType)
	req.Header.Set("Accept", gridMediaType+", "+jsonMediaType)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, statusError(resp)
	}
	buf := wirePool.Get().(*[]byte)
	defer wirePool.Put(buf)
	if *buf, err = readAll(resp.Body, *buf, resp.ContentLength); err != nil {
		return nil, fmt.Errorf("serve: reading /v1/solve answer: %w", err)
	}
	var out SolveResponse
	contentType := resp.Header.Get("Content-Type")
	switch mt, _, _ := mime.ParseMediaType(contentType); mt {
	case jsonMediaType:
		err = decodeWire(*buf, nil, &out, (*scanner).solveResponse)
	case gridMediaType:
		err = decodeGridSolve(*buf, &out)
	default:
		err = fmt.Errorf("serve: /v1/solve answered HTTP %d with Content-Type %q, which this call cannot read", resp.StatusCode, contentType)
	}
	if err != nil {
		return nil, err
	}
	return &out, nil
}
