package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// front.go is the query pipeline both serving tiers run: a node (Handler)
// and the coordinator (internal/coord) answer POST /v1/query/{view}
// through one Front, so they cannot drift apart. A tier supplies only how
// a request resolves, as a Resolver.

// Target is one view a query resolved to, held by its tier — a node's
// registry entry, the coordinator's shard-map generation — until Release,
// so the whole response comes from one generation. The front binds the
// request and counts the free variables from the full adorned view alone;
// only Open touches what answers the request — a node's representation,
// the coordinator's workers.
type Target interface {
	Name() string   // X-Cqrep-View and the result-cache key
	View() *cq.View // the full view: binds the request, names the free variables
	// Open starts the enumeration of vb; a non-nil cleanup runs once
	// delivery ends. An error from StatusErrorf answers with its status,
	// any other with the front's failure status.
	Open(ctx context.Context, vb relation.Tuple, req QueryRequest) (src Source, cleanup func(), err error)
	Counters() *StreamCounters // per-view tally, or nil
	Release()
}

// Resolver resolves a view name to a held Target and the generation that
// keys its cached results; its errors come from StatusErrorf.
type Resolver func(view string) (Target, uint64, error)

// statusError is a failure that answers with its own HTTP status.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// StatusErrorf makes an error that answers with the given HTTP status.
func StatusErrorf(status int, format string, args ...any) error {
	return &statusError{status: status, msg: fmt.Sprintf(format, args...)}
}

// StreamCounters tallies how started streams ended; every stream lands in
// exactly one bucket. complete includes limit-truncated streams (the
// client got what it asked for); errored means a terminal error reached
// the client (the IterErr contract) or, with nothing streamed yet, was
// answered as an HTTP error status; aborted means the client went away or
// shutdown cut the stream — the client did NOT see a clean terminal, so
// counting it as served would hide mid-stream terminations.
type StreamCounters struct {
	requests atomic.Uint64
	tuples   atomic.Uint64
	complete atomic.Uint64
	errored  atomic.Uint64
	aborted  atomic.Uint64
}

// add records one finished stream: one add per stream, never per tuple.
func (s *StreamCounters) add(disp Disposition, tuples int) {
	s.requests.Add(1)
	s.tuples.Add(uint64(tuples))
	switch disp {
	case StreamErrored:
		s.errored.Add(1)
	case StreamAborted:
		s.aborted.Add(1)
	default:
		s.complete.Add(1)
	}
}

// Front is the client-facing query pipeline of one serving tier; create
// one with NewFront.
type Front struct {
	resolve    Resolver
	cache      *ResultCache // nil when caching is off
	maxBody    int64
	flushBatch int
	failStatus int
	started    time.Time

	requests atomic.Uint64
	errors   atomic.Uint64
	streams  StreamCounters
	delay    LatencyHist // time to first streamed tuple
	total    LatencyHist // full stream wall-clock
}

// NewFront returns the query pipeline over resolve, configured by the
// MaxBodyBytes, FlushBatch and CacheBytes fields of opts. failStatus
// answers a stream that fails before its first tuple: 500 on a node, 502
// on the coordinator, whose upstream failed.
func NewFront(opts Options, failStatus int, resolve Resolver) *Front {
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	return &Front{
		resolve:    resolve,
		cache:      NewResultCache(opts.CacheBytes),
		maxBody:    maxBody,
		flushBatch: opts.FlushBatch,
		failStatus: failStatus,
		started:    time.Now(),
	}
}

// Error writes a one-object JSON error body with the given status and
// counts it.
func (f *Front) Error(w http.ResponseWriter, status int, format string, args ...any) {
	f.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ServeHealth answers GET /healthz, process liveness: the tier is up and
// dispatching. It says nothing about views — a worker with zero attached
// shards is healthy.
func (f *Front) ServeHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ok": true})
}

// SetGeneration tells the result cache which generation is live, dropping
// every entry of any other; a no-op when caching is off.
func (f *Front) SetGeneration(gen uint64) {
	if f.cache != nil {
		f.cache.SetGeneration(gen)
	}
}

// CacheStats snapshots the result-cache counters; ok is false when
// caching is off.
func (f *Front) CacheStats() (CacheStats, bool) {
	if f.cache == nil {
		return CacheStats{}, false
	}
	return f.cache.Stats(), true
}

// ServeQuery answers POST /v1/query/{view}, streaming one access request
// in the negotiated encoding — NDJSON or the binary framing (wire.go) — in
// enumeration order. The body is parsed before the view is resolved, so a
// malformed body is a 400 whatever view it names. A stream that dies
// mid-way ends with the format's terminal error so clients can tell a
// truncated enumeration from a complete one (see core.IterErr).
func (f *Front) ServeQuery(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.maxBody))
	if err != nil {
		// Only an actual size overflow is 413; any other read failure
		// (malformed chunking, client disconnect mid-body) is the
		// client's bad request, not an oversized one.
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		f.Error(w, status, "request body: %v", err)
		return
	}
	req, err := ParseBindings(body)
	if err != nil {
		f.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	format := NegotiateFormat(r.Header.Get("Accept"))

	t, gen, err := f.resolve(r.PathValue("view"))
	if err != nil {
		f.Error(w, f.statusOf(err), "%v", err)
		return
	}
	defer t.Release()
	vb, err := core.BindView(t.View(), req.Bindings)
	if err != nil {
		f.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The key carries the generation this request holds, so a swap
	// invalidates by construction.
	var flight *CacheFlight
	if f.cache != nil && req.Limit == 0 {
		res := f.cache.Acquire(t.Name(), gen, format, string(vb.AppendEncode(nil)))
		if res.Hit {
			f.replay(w, t, format, res.Body, res.Tuples, start)
			return
		}
		if res.Leader {
			flight = res.Flight
		} else if body, tuples, ok := res.Flight.Wait(r.Context()); ok {
			f.replay(w, t, format, body, tuples, start)
			return
		}
		// A failed flight (or our own context expiring while parked) falls
		// through to computing directly, with no flight: coalescing never
		// turns one stream's failure into another's.
	}
	f.stream(r.Context(), w, t, vb, req, format, start, flight)
}

func (f *Front) statusOf(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	return f.failStatus
}

// viewHeaders names the view and its free-variable count on the response
// and returns the count, the stream's arity.
func viewHeaders(w http.ResponseWriter, t Target) int {
	arity := len(t.View().FreeVars())
	w.Header().Set("X-Cqrep-View", t.Name())
	w.Header().Set("X-Cqrep-Free", strconv.Itoa(arity))
	return arity
}

func (f *Front) count(t Target, disp Disposition, tuples int) {
	f.streams.add(disp, tuples)
	if vc := t.Counters(); vc != nil {
		vc.add(disp, tuples)
	}
}

// replay serves one cached encoded stream, with the same headers,
// counters, and flush behavior a live complete stream would have had.
func (f *Front) replay(w http.ResponseWriter, t Target, format Format, body []byte, tuples int, start time.Time) {
	viewHeaders(w, t)
	w.Header().Set("Content-Type", format.MediaType())
	if tuples > 0 {
		f.delay.Add(time.Since(start))
	}
	w.Write(body)
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
	f.count(t, StreamComplete, tuples)
	f.total.Add(time.Since(start))
}

// stream opens the target's blocks and delivers them on this goroutine, so
// the request's context cuts the enumeration. A non-nil flight means this
// request leads a cache fill: the bytes are teed and published on a
// complete stream, abandoned otherwise so waiters fall back.
func (f *Front) stream(ctx context.Context, w http.ResponseWriter, t Target, vb relation.Tuple, req QueryRequest, format Format, start time.Time, flight *CacheFlight) {
	published := false
	if flight != nil {
		defer func() { // deferred so that a panicking enumeration cannot strand the waiters
			if !published {
				f.cache.Abandon(flight)
			}
		}()
	}
	defer func() { f.total.Add(time.Since(start)) }()

	arity := viewHeaders(w, t)
	var tee *CacheTee
	if flight != nil {
		tee = NewCacheTee(w, f.cache.MaxEntryBytes())
		w = tee
	}
	sw := NewStreamWriter(w, format, arity, f.flushBatch)
	defer sw.release()
	disp := StreamErrored
	// Blocks and rows are borrowed from the target and only read.
	src, cleanup, err := t.Open(ctx, vb, req)
	if err == nil {
		if cleanup != nil {
			defer cleanup()
		}
		disp, err = Deliver(ctx, sw, src, req.Limit, func() { f.delay.Add(time.Since(start)) })
	}
	n := sw.Wrote()
	f.count(t, disp, n)
	switch {
	case disp == StreamErrored && n == 0:
		// Nothing was streamed yet — the stream header is only staged — so
		// the status line is still ours: fail properly instead of a 200
		// with an error trailer.
		f.Error(w, f.statusOf(err), "%v", err)
	case disp == StreamErrored:
		f.errors.Add(1)
	case disp == StreamComplete && tee != nil:
		if body, ok := tee.Captured(); ok {
			f.cache.Publish(flight, body, n)
			published = true
		}
	}
}

// FrontStats is the query-pipeline block of /v1/stats that both tiers
// embed, so one consumer (cqload, the repository benchmark) reads either.
type FrontStats struct {
	UptimeMs        int64          `json:"uptime_ms"`
	Generation      uint64         `json:"generation"`
	Requests        uint64         `json:"requests"`
	Errors          uint64         `json:"errors"`
	Tuples          uint64         `json:"tuples"`
	StreamsComplete uint64         `json:"streams_complete"`
	StreamsErrored  uint64         `json:"streams_errored"`
	StreamsAborted  uint64         `json:"streams_aborted"`
	FirstTuple      LatencySummary `json:"first_tuple"`
	Total           LatencySummary `json:"total"`
	// Cache is the result-cache block; nil (omitted) when caching is off.
	Cache *CacheStats `json:"cache,omitempty"`
}

// Stats snapshots the front's counters under the tier's live generation.
func (f *Front) Stats(gen uint64) FrontStats {
	st := FrontStats{
		UptimeMs:        time.Since(f.started).Milliseconds(),
		Generation:      gen,
		Requests:        f.requests.Load(),
		Errors:          f.errors.Load(),
		Tuples:          f.streams.tuples.Load(),
		StreamsComplete: f.streams.complete.Load(),
		StreamsErrored:  f.streams.errored.Load(),
		StreamsAborted:  f.streams.aborted.Load(),
		FirstTuple:      f.delay.Summary(),
		Total:           f.total.Summary(),
	}
	if cs, ok := f.CacheStats(); ok {
		st.Cache = &cs
	}
	return st
}

// RetireGate lets a swap retire one generation — a node's registry entry,
// the coordinator's shard map — without breaking a stream on it: a request
// either acquires the generation and streams wholly from it, or fails
// Acquire and retries on the fresh one. The zero value is open.
type RetireGate struct {
	mu      sync.Mutex
	refs    sync.WaitGroup // no Add follows Retire: Acquire checks retired under mu
	retired bool
}

// Acquire takes a reference; it fails once the gate has been retired.
func (g *RetireGate) Acquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.retired {
		return false
	}
	g.refs.Add(1)
	return true
}

// Release drops a reference taken by Acquire.
func (g *RetireGate) Release() { g.refs.Done() }

// Retire closes the gate to new references and blocks until every
// reference taken before it is released.
func (g *RetireGate) Retire() {
	g.mu.Lock()
	g.retired = true
	g.mu.Unlock()
	g.refs.Wait()
}
