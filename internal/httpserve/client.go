package httpserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"cqrep/internal/relation"
)

// client.go is the reference consumer of the wire API: cmd/cqload and the
// repository benchmark drive a cqserve instance through it, and the
// end-to-end tests use it to check byte-identical enumeration against the
// in-process representation. The client is built around two pieces: a
// typed Format that names the stream encoding it asks for via Accept, and
// a Stream interface both encodings decode into — a consumer drains tuples
// the same way whether the bytes underneath were NDJSON lines or binary
// frames.

// Format selects the result stream encoding of a query request.
type Format int

const (
	// FormatNDJSON is the default newline-delimited JSON stream: one JSON
	// array of values per tuple, a terminal {"error": ...} object on a
	// mid-stream failure.
	FormatNDJSON Format = iota
	// FormatBinary is the length-prefixed binary framing (wire.go):
	// batched fixed-width frames with an explicit end or error terminal.
	FormatBinary
)

// MediaType returns the media type the format is negotiated under.
func (f Format) MediaType() string {
	if f == FormatBinary {
		return BinaryMediaType
	}
	return NDJSONMediaType
}

// String names the format the way the command-line flags spell it.
func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "ndjson"
}

// ParseFormat maps a flag value ("ndjson", "binary") onto a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "ndjson":
		return FormatNDJSON, nil
	case "binary":
		return FormatBinary, nil
	}
	return 0, fmt.Errorf("httpserve: unknown stream format %q (want ndjson or binary)", s)
}

// Client talks to one cqserve base URL.
type Client struct {
	Base string       // e.g. "http://127.0.0.1:8080"
	HTTP *http.Client // nil means http.DefaultClient
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// RemoteError is a server-reported failure: an error JSON body on a
// non-streaming endpoint, or the terminal error of a stream whose
// enumeration broke mid-way (the NDJSON error object or the binary error
// frame).
type RemoteError struct {
	Status  int // HTTP status; 200 for a mid-stream terminal error
	Message string
}

func (e *RemoteError) Error() string {
	if e.Status == http.StatusOK {
		return fmt.Sprintf("httpserve: stream ended with error: %s", e.Message)
	}
	return fmt.Sprintf("httpserve: %d: %s", e.Status, e.Message)
}

// Views fetches the /v1/views registry.
func (c *Client) Views(ctx context.Context) ([]ViewInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(c.Base, "/")+"/v1/views", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, remoteError(resp)
	}
	var body viewsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("httpserve: decoding /v1/views: %w", err)
	}
	return body.Views, nil
}

// Reload triggers POST /v1/reload and returns the new registry generation.
func (c *Client) Reload(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(c.Base, "/")+"/v1/reload", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, remoteError(resp)
	}
	var body struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body.Generation, nil
}

// postJSON sends one JSON body to an endpoint, checks for a 200 and, when
// reply is non-nil, decodes the answer into it.
func (c *Client) postJSON(ctx context.Context, path string, payload, reply any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(c.Base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp)
	}
	rest := io.LimitReader(resp.Body, 64*1024)
	if reply != nil {
		if err := json.NewDecoder(rest).Decode(reply); err != nil {
			return fmt.Errorf("httpserve: decoding %s reply: %w", path, err)
		}
	}
	io.Copy(io.Discard, rest)
	return nil
}

// Attach asks an admin-enabled worker to serve the snapshot named by
// source (a local path or a fetchable URL) under the registry key name,
// and returns what the worker decoded.
func (c *Client) Attach(ctx context.Context, name, source string) (AttachReply, error) {
	var reply AttachReply
	err := c.postJSON(ctx, "/v1/attach", map[string]string{"name": name, "source": source}, &reply)
	return reply, err
}

// Detach asks an admin-enabled worker to stop serving the named entry.
func (c *Client) Detach(ctx context.Context, name string) error {
	return c.postJSON(ctx, "/v1/detach", map[string]string{"name": name}, nil)
}

// Ready probes GET /readyz; nil means the server reports ready.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(c.Base, "/")+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64*1024))
	return nil
}

// QueryOptions shapes one access request.
type QueryOptions struct {
	// Bindings assigns values to the view's bound variables.
	Bindings map[string]relation.Value
	// Limit caps the number of tuples; zero means unbounded.
	Limit int
	// Format is the stream encoding to request. The server's response
	// Content-Type decides what is actually decoded, so a client asking
	// for the binary framing degrades cleanly against a server that only
	// speaks NDJSON.
	Format Format
}

// Stream is one open result stream. Next yields tuples in enumeration
// order; after it returns false, Err distinguishes a complete stream (nil)
// from a failed or — for the binary framing — truncated one. Close
// releases the underlying response body and must always be called.
type Stream interface {
	Next() (relation.Tuple, bool)
	Err() error
	Close() error
}

// Open sends one access request and returns its result stream undrained,
// for consumers that want tuples as the server produces them. The decoder
// is picked from the response Content-Type, so what Open returns always
// matches what the server actually sent.
func (c *Client) Open(ctx context.Context, view string, opts QueryOptions) (Stream, error) {
	payload := map[string]any{}
	if len(opts.Bindings) > 0 {
		payload["bindings"] = opts.Bindings
	}
	if opts.Limit > 0 {
		payload["limit"] = opts.Limit
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	url := strings.TrimRight(c.Base, "/") + "/v1/query/" + view
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", opts.Format.MediaType())

	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, remoteError(resp)
	}
	ct, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";")
	if strings.EqualFold(strings.TrimSpace(ct), BinaryMediaType) {
		dec, err := newBinaryReader(resp.Body)
		if err != nil {
			resp.Body.Close()
			return nil, err
		}
		return &binaryStream{dec: dec, body: resp.Body}, nil
	}
	// The scanner starts at its default 4 KB and grows only for long
	// lines: a point request's lines are a few bytes, and a fixed 64 KB per
	// stream was most of a point-request client's garbage.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16*1024*1024)
	return &ndjsonStream{sc: sc, body: resp.Body}, nil
}

// QueryResult is one drained result stream.
type QueryResult struct {
	Tuples []relation.Tuple
	// FirstTuple is the delay from sending the request to decoding the
	// first result; zero when the result is empty.
	FirstTuple time.Duration
	// Total is the full request wall-clock including drain.
	Total time.Duration
}

// Query runs one access request in the default NDJSON encoding and drains
// its stream; it is QueryOpts with only the classic knobs exposed. A
// terminal error in the stream, or a non-200 response, returns a
// *RemoteError (tuples decoded before a mid-stream failure are returned
// alongside it).
func (c *Client) Query(ctx context.Context, view string, bindings map[string]relation.Value, limit int) (*QueryResult, error) {
	return c.QueryOpts(ctx, view, QueryOptions{Bindings: bindings, Limit: limit})
}

// QueryOpts runs one access request and drains its stream, with the same
// error contract as Query.
func (c *Client) QueryOpts(ctx context.Context, view string, opts QueryOptions) (*QueryResult, error) {
	start := time.Now()
	st, err := c.Open(ctx, view, opts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	res := &QueryResult{}
	for {
		t, ok := st.Next()
		if !ok {
			break
		}
		if len(res.Tuples) == 0 {
			res.FirstTuple = time.Since(start)
		}
		res.Tuples = append(res.Tuples, t)
	}
	res.Total = time.Since(start)
	if err := st.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// ndjsonStream decodes the newline-delimited JSON encoding. NDJSON has no
// explicit end marker, so a clean EOF is a complete stream; the terminal
// {"error": ...} object becomes a *RemoteError from Err.
type ndjsonStream struct {
	sc   *bufio.Scanner
	body io.Closer
	err  error
	done bool
}

func (s *ndjsonStream) Next() (relation.Tuple, bool) {
	if s.done || s.err != nil {
		return nil, false
	}
	for s.sc.Scan() {
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '{' { // terminal error object
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(line, &e); err != nil {
				s.err = fmt.Errorf("httpserve: undecodable terminal object %q: %w", line, err)
			} else {
				s.err = &RemoteError{Status: http.StatusOK, Message: e.Error}
			}
			s.done = true
			return nil, false
		}
		var vals []int64
		if err := json.Unmarshal(line, &vals); err != nil {
			s.err = fmt.Errorf("httpserve: undecodable tuple line %q: %w", line, err)
			s.done = true
			return nil, false
		}
		t := make(relation.Tuple, len(vals))
		for i, v := range vals {
			t[i] = relation.Value(v)
		}
		return t, true
	}
	s.done = true
	s.err = s.sc.Err()
	return nil, false
}

func (s *ndjsonStream) Err() error   { return s.err }
func (s *ndjsonStream) Close() error { return s.body.Close() }

// binaryStream adapts the binary frame reader (wire.go) to the Stream
// interface. It is also a core.RowIterator that lends each frame's rows
// still encoded (NextRows, Ready): the coordinator merges and relays worker
// streams through it without decoding them.
type binaryStream struct {
	dec  *binaryReader
	body io.ReadCloser
}

func (s *binaryStream) Next() (relation.Tuple, bool)   { return s.dec.Next() }
func (s *binaryStream) NextRows(max int) relation.Rows { return s.dec.NextRows(max) }
func (s *binaryStream) Ready() bool                    { return s.dec.Ready() }
func (s *binaryStream) Err() error                     { return s.dec.Err() }

// Close drains whatever trails the terminal frame before closing the
// body. The frame reader stops at the end frame rather than at EOF, and a
// body closed with unread bytes cannot be returned to the connection
// pool — without the drain every binary request would pay a fresh TCP
// setup. The drain is capped: a truncated or hostile stream must not
// stall Close.
func (s *binaryStream) Close() error {
	s.dec.release()
	io.Copy(io.Discard, io.LimitReader(s.body, 64*1024))
	return s.body.Close()
}

// remoteError decodes an error JSON body into a *RemoteError.
func remoteError(resp *http.Response) error {
	msg := resp.Status
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 64*1024)); err == nil {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			msg = e.Error
		}
	}
	return &RemoteError{Status: resp.StatusCode, Message: msg}
}
