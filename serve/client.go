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

// Shed reports whether the request was load-shed (retryable) rather than
// rejected as invalid.
func (e *StatusError) Shed() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

// Client talks to a serve.Server. The zero HTTP client is usable; mass
// load drivers should supply one with MaxIdleConnsPerHost sized to their
// concurrency. Solves and batches ask for their answers' grids as bytes
// (protocol.go) and read whichever framing the server answers in.
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

// do sends req and hands the complete 2xx body to the decoder of its framing,
// picked by the answer's Content-Type (parameters ignored): JSON, or — for the
// calls that ask for it by passing decodeGrid — the grid framing. Any other
// type is an error naming it, not a syntax error from the wrong decoder.
// Non-2xx answers come back as *StatusError. The body is always read to EOF
// before it is closed: net/http reuses a keep-alive connection only then, and
// a JSON decoder that stops at the closing brace leaves a chunked answer's
// terminator unread.
func (c *Client) do(req *http.Request, decodeJSON, decodeGrid func(body []byte) error) error {
	if decodeGrid != nil {
		req.Header.Set("Accept", gridMediaType+", "+jsonMediaType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(resp)
	}
	buf := wirePool.Get().(*[]byte)
	defer wirePool.Put(buf)
	if *buf, err = readAll(resp.Body, *buf, resp.ContentLength); err != nil {
		return fmt.Errorf("serve: reading %s answer: %w", req.URL.Path, err)
	}
	contentType := resp.Header.Get("Content-Type")
	switch mt, _, _ := mime.ParseMediaType(contentType); {
	case mt == jsonMediaType:
		return decodeJSON(*buf)
	case mt == gridMediaType && decodeGrid != nil:
		return decodeGrid(*buf)
	}
	return fmt.Errorf("serve: %s answered HTTP %d with Content-Type %q, which this call cannot read", req.URL.Path, resp.StatusCode, contentType)
}

// post sends a JSON body to a grid-carrying endpoint, asking for the answer's
// grids as bytes; a server that ignores Accept answers JSON and is read so.
func (c *Client) post(ctx context.Context, path string, body []byte, decodeJSON, decodeGrid func(body []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", jsonMediaType)
	return c.do(req, decodeJSON, decodeGrid)
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

// Solve posts one solve request.
func (c *Client) Solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	body, err := appendSolveRequest(make([]byte, 0, encodedSize(len(req.B)+len(req.X))), &req)
	if err != nil {
		return nil, err
	}
	return c.SolveBytes(ctx, body)
}

// SolveBytes posts a pre-marshaled SolveRequest — the load-driver fast
// path, keeping request encoding off the measured latency.
func (c *Client) SolveBytes(ctx context.Context, body []byte) (*SolveResponse, error) {
	var out SolveResponse
	err := c.post(ctx, "/v1/solve", body,
		func(b []byte) error { return decodeWire(b, nil, &out, (*scanner).solveResponse) },
		func(b []byte) error { return decodeGridSolve(b, &out) })
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch posts one batch request.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	nfloats := 0
	for _, p := range req.Problems {
		nfloats += len(p.B) + len(p.X)
	}
	body, err := appendBatchRequest(make([]byte, 0, encodedSize(nfloats)), &req)
	if err != nil {
		return nil, err
	}
	var out BatchResponse
	err = c.post(ctx, "/v1/batch", body,
		func(b []byte) error { return decodeWire(b, nil, &out, (*scanner).batchResponse) },
		func(b []byte) error { return decodeGridBatch(b, &out) })
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the serving counters.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	var out Metrics
	if err := c.do(req, func(b []byte) error { return json.Unmarshal(b, &out) }, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reload asks the server to rebuild its catalog from the config dir.
func (c *Client) Reload(ctx context.Context) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/-/reload", nil)
	if err != nil {
		return 0, err
	}
	var out struct {
		Version int64 `json:"version"`
	}
	if err := c.do(req, func(b []byte) error { return json.Unmarshal(b, &out) }, nil); err != nil {
		return 0, err
	}
	return out.Version, nil
}
