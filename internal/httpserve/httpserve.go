// Package httpserve is the network front of the compile-once /
// enumerate-many model: it serves one or more snapshot-loaded compiled
// representations over HTTP, so a single compilation pays off across any
// number of remote clients (the ROADMAP's "heavy traffic from millions of
// users" north star). The wire API is specified in DESIGN.md §5:
//
//	POST /v1/query/{view}  JSON bindings in, NDJSON tuples out (streamed
//	                       in enumeration order, bounded per-request
//	                       buffers, terminal error object on failure)
//	GET  /v1/views         the registry: names, adornments, strategies
//	GET  /v1/stats         tuple/shard counts, request/latency counters
//	POST /v1/reload        re-read the snapshot files and atomically swap
//
// Reload is hot: the per-view registry is swapped atomically, requests
// in flight keep streaming from the representation they started on, and
// the old generation is released only after its last stream finishes.
// A request enumerates on its own handler goroutine, block by block
// (core.Representation.QueryBlocks) through Deliver into the one
// StreamWriter, so its context — client disconnect, shutdown — cuts the
// enumeration directly.
package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/relation"
)

// Options configures a Handler.
type Options struct {
	// MaxBodyBytes caps a query request body; <= 0 means 1 MiB.
	MaxBodyBytes int64
	// FlushBatch is the steady-state tuples-per-flush of binary result
	// streams — the size of the blocks a request enumerates and of the
	// frames it ships; <= 0 means defaultFlushBatch. The first tuple of
	// every stream is always flushed alone, so batching never defers
	// first-answer delay. NDJSON streams keep per-line flushing regardless.
	// It also bounds what is buffered for a slow client: one block.
	FlushBatch int
	// Mmap loads snapshots through the mmap path (cqrep.LoadMmap):
	// startup is O(file-open) per snapshot and each view — each shard,
	// for sharded snapshots — decodes on first touch. Payload-level
	// corruption then surfaces on a view's first query instead of at load
	// time.
	Mmap bool
	// Admin exposes the registry-mutation endpoints (POST /v1/attach,
	// POST /v1/detach) that a coordinator drives to ship shards onto a
	// worker. They load arbitrary local files and fetch arbitrary URLs, so
	// they are opt-in: only worker processes behind a trusted coordinator
	// should enable them.
	Admin bool
	// SpoolDir is where /v1/attach materializes snapshot bytes fetched
	// from a source URL; empty means the OS temp directory.
	SpoolDir string
	// ReadyGate, when non-nil, gates /readyz beyond the per-view decode
	// checks — a worker reports unready until it has joined its
	// coordinator, whatever its registry holds.
	ReadyGate func() bool
	// WALDir, when non-empty, arms durable-update recovery (wal.go): each
	// snapshot load replays <registry-name>.wal from this directory on top
	// of the loaded representation, persists the recovered state back over
	// the snapshot file, and compacts the log. A missing or empty log is a
	// no-op; a log that cannot be replayed fails the load.
	WALDir string
	// CacheBytes bounds the hot-binding result cache (cache.go): encoded
	// result streams for repeated (view, generation, binding, format)
	// keys are replayed from memory under this byte budget with LRU
	// eviction. <= 0 disables caching. Reload/attach/detach bump the
	// registry generation, which invalidates every cached frame from the
	// previous generation without an explicit flush.
	CacheBytes int64
}

// SnapshotSpec names one registry entry: the snapshot file to load and the
// key it serves under. An empty Name means the view name stored in the
// snapshot — the common case; an explicit Name lets one process serve
// several shards of the same view apart (the coordinator attaches shard i
// of view V as "V@i", each a self-contained per-shard snapshot whose
// stored view name is still V).
type SnapshotSpec struct {
	Name string
	Path string
}

// defaultFlushBatch is the steady-state tuples-per-flush when
// Options.FlushBatch is unset: large enough to amortize per-block and flush
// syscall overhead, small enough that a mid-stream gap stays tiny.
const defaultFlushBatch = 128

// Handler serves a registry of snapshot-loaded representations over HTTP.
// It implements http.Handler; create one with New and Close it when done.
type Handler struct {
	opts  Options
	mux   *http.ServeMux
	start time.Time

	// specs is the registry recipe: Reload re-reads it, Attach/Detach
	// mutate it. Guarded by reloadMu.
	specs []SnapshotSpec

	// reg is the current registry; queries load it once and hold a
	// reference on their entry for their whole stream, so a concurrent
	// reload can swap the registry without tearing anyone's view.
	reg atomic.Pointer[registry]
	// cache replays encoded result streams for repeated bindings; nil
	// when Options.CacheBytes is unset. Entries are keyed by registry
	// generation, so swaps invalidate by construction (cache.go).
	cache     *ResultCache
	reloadMu  sync.Mutex // serializes Reload/Close swaps
	reloads   atomic.Uint64
	closed    atomic.Bool
	closeOnce sync.Once
	closeDone chan struct{}  // closed once every stream has drained
	retired   sync.WaitGroup // background retire goroutines

	requests atomic.Uint64
	errors   atomic.Uint64
	tuples   atomic.Uint64
	// Stream dispositions: every stream that started (headers committed or
	// first tuple produced) lands in exactly one bucket. complete includes
	// limit-truncated streams (the client got what it asked for); errored
	// means a terminal error reached the client (the IterErr contract);
	// aborted means the client went away or shutdown cut the stream — the
	// client did NOT see a clean terminal, so counting it as served would
	// hide mid-stream terminations.
	streamsComplete atomic.Uint64
	streamsErrored  atomic.Uint64
	streamsAborted  atomic.Uint64
	delay           LatencyHist // time to first streamed tuple
	total           LatencyHist // full request wall-clock
}

// registry is one immutable generation of the view table; Reload builds a
// fresh one and swaps the pointer.
type registry struct {
	gen   uint64
	views map[string]*viewEntry
	names []string // sorted view names, for /v1/views determinism
}

// blockSource is what a view enumerates through — its representation; a
// failing stand-in in tests.
type blockSource interface {
	QueryBlocks(ctx context.Context, vb relation.Tuple) core.BlockIterator
}

// viewEntry is one served view: its representation and the in-flight
// reference gate that lets a retirer wait for the last stream started on
// it. The gate is the whole-generation-or-retry guarantee: a request
// either acquires an entry and streams wholly from it, or retries on the
// fresh registry.
type viewEntry struct {
	name     string
	path     string
	rep      *core.Representation
	src      blockSource // rep, except under test
	loadedAt time.Time

	mu      sync.Mutex
	refs    int
	retired bool
	idle    chan struct{} // closed when retired with no refs left

	requests        atomic.Uint64
	tuples          atomic.Uint64
	streamsComplete atomic.Uint64
	streamsErrored  atomic.Uint64
	streamsAborted  atomic.Uint64
	baseTup         func() int // lazy: materializes mmap-loaded representations
	wal             walStatus  // recovery outcome when Options.WALDir is set
}

// acquire takes a reference on the entry; it fails once the entry has
// been retired by a reload or shutdown (the caller then retries on the
// fresh registry).
func (e *viewEntry) acquire() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.retired {
		return false
	}
	e.refs++
	return true
}

// release drops a reference; the last release after retirement unblocks
// the retirer.
func (e *viewEntry) release() {
	e.mu.Lock()
	e.refs--
	last := e.retired && e.refs == 0
	e.mu.Unlock()
	if last {
		close(e.idle)
	}
}

// retire marks the entry dead and waits for in-flight streams to finish.
// Requests in flight keep streaming from the old representation; new
// requests fail acquire and route to the replacement.
func (e *viewEntry) retire() {
	e.mu.Lock()
	e.retired = true
	idleNow := e.refs == 0
	e.mu.Unlock()
	if idleNow {
		close(e.idle)
	}
	<-e.idle
}

// New loads every snapshot path into a per-view registry and returns the
// handler. Each snapshot contributes one view, keyed by its view name;
// duplicate names across files are an error. The paths are remembered:
// POST /v1/reload (and Reload) re-reads them.
func New(paths []string, opts Options) (*Handler, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("httpserve: no snapshot paths")
	}
	specs := make([]SnapshotSpec, len(paths))
	for i, p := range paths {
		specs[i] = SnapshotSpec{Path: p}
	}
	return NewSpecs(specs, opts)
}

// NewSpecs is New with explicit registry keys, and it accepts an empty
// spec list: a worker process starts with no views and gains them through
// Attach as its coordinator assigns shards.
func NewSpecs(specs []SnapshotSpec, opts Options) (*Handler, error) {
	h := &Handler{opts: opts, specs: append([]SnapshotSpec(nil), specs...), start: time.Now(), closeDone: make(chan struct{})}
	h.cache = NewResultCache(opts.CacheBytes) // nil when caching is off
	reg, err := h.loadRegistry(1)
	if err != nil {
		return nil, err
	}
	h.reg.Store(reg)
	if h.cache != nil {
		h.cache.SetGeneration(reg.gen)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query/{view}", h.handleQuery)
	mux.HandleFunc("GET /v1/views", h.handleViews)
	mux.HandleFunc("GET /v1/stats", h.handleStats)
	mux.HandleFunc("POST /v1/reload", h.handleReload)
	mux.HandleFunc("GET /healthz", h.handleHealth)
	mux.HandleFunc("GET /readyz", h.handleReady)
	if opts.Admin {
		mux.HandleFunc("POST /v1/attach", h.handleAttach)
		mux.HandleFunc("POST /v1/detach", h.handleDetach)
	}
	h.mux = mux
	return h, nil
}

// loadRegistry reads every snapshot spec into a fresh registry generation.
func (h *Handler) loadRegistry(gen uint64) (*registry, error) {
	reg := &registry{gen: gen, views: make(map[string]*viewEntry, len(h.specs))}
	for i, spec := range h.specs {
		entry, err := h.loadEntry(spec)
		if err != nil {
			return nil, err
		}
		// Resolve path-only specs to their registry key, so Attach/Detach
		// can match them by name from here on.
		h.specs[i].Name = entry.name
		if _, dup := reg.views[entry.name]; dup {
			return nil, fmt.Errorf("httpserve: duplicate view %q (snapshot %s)", entry.name, spec.Path)
		}
		reg.views[entry.name] = entry
		reg.names = append(reg.names, entry.name)
	}
	sort.Strings(reg.names)
	return reg, nil
}

// loadEntry loads one snapshot spec into a servable view entry.
func (h *Handler) loadEntry(spec SnapshotSpec) (*viewEntry, error) {
	rep, err := loadSnapshot(spec.Path, h.opts.Mmap)
	if err != nil {
		return nil, fmt.Errorf("httpserve: %s: %w", spec.Path, err)
	}
	name := spec.Name
	if name == "" {
		name = rep.View().Name
	}
	var wst walStatus
	if h.opts.WALDir != "" {
		// Recovery before serving: the log holds churn a writer already
		// acknowledged as durable, so the registry must reflect it.
		rep, wst, err = recoverWAL(rep, walPathFor(h.opts.WALDir, name), spec.Path)
		if err != nil {
			return nil, fmt.Errorf("httpserve: %s: %w", spec.Path, err)
		}
	}
	return &viewEntry{
		name:     name,
		path:     spec.Path,
		rep:      rep,
		src:      rep,
		loadedAt: time.Now(),
		idle:     make(chan struct{}),
		// Deferred: counting base tuples materializes the
		// representation, which an mmap load must not do at startup.
		baseTup: sync.OnceValue(func() int { return baseTuples(rep) }),
		wal:     wst,
	}, nil
}

// Attach loads the snapshot at path and serves it under name, atomically
// swapping in a registry generation that includes it. An existing entry
// under the same name is replaced with the /v1/reload retire discipline:
// streams in flight on the old entry finish on it, new requests land on
// the replacement. The spec is remembered, so a later Reload re-reads the
// attached file along with everything else.
func (h *Handler) Attach(name, path string) error {
	if name == "" {
		return fmt.Errorf("httpserve: attach needs a registry name")
	}
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	if h.closed.Load() {
		return core.ErrClosed
	}
	entry, err := h.loadEntry(SnapshotSpec{Name: name, Path: path})
	if err != nil {
		return err
	}
	old := h.reg.Load()
	reg := &registry{gen: old.gen + 1, views: make(map[string]*viewEntry, len(old.views)+1)}
	var replaced *viewEntry
	for n, e := range old.views {
		if n == name {
			replaced = e
			continue
		}
		reg.views[n] = e
		reg.names = append(reg.names, n)
	}
	reg.views[name] = entry
	reg.names = append(reg.names, name)
	sort.Strings(reg.names)
	h.reg.Store(reg)
	if h.cache != nil {
		h.cache.SetGeneration(reg.gen)
	}

	kept := h.specs[:0]
	for _, s := range h.specs {
		if s.Name != name {
			kept = append(kept, s)
		}
	}
	h.specs = append(kept, SnapshotSpec{Name: name, Path: path})
	if replaced != nil {
		h.retired.Add(1)
		go func() {
			defer h.retired.Done()
			replaced.retire()
		}()
	}
	return nil
}

// Detach removes the named entry from the registry (and from the reload
// spec list). In-flight streams on it finish.
func (h *Handler) Detach(name string) error {
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	if h.closed.Load() {
		return core.ErrClosed
	}
	old := h.reg.Load()
	gone, ok := old.views[name]
	if !ok {
		return fmt.Errorf("httpserve: view %q is not served", name)
	}
	reg := &registry{gen: old.gen + 1, views: make(map[string]*viewEntry, len(old.views)-1)}
	for n, e := range old.views {
		if n == name {
			continue
		}
		reg.views[n] = e
		reg.names = append(reg.names, n)
	}
	sort.Strings(reg.names)
	h.reg.Store(reg)
	if h.cache != nil {
		h.cache.SetGeneration(reg.gen)
	}

	kept := h.specs[:0]
	for _, s := range h.specs {
		if s.Name != name {
			kept = append(kept, s)
		}
	}
	h.specs = kept
	h.retired.Add(1)
	go func() {
		defer h.retired.Done()
		gone.retire()
	}()
	return nil
}

// baseTuples counts the base-relation tuples behind a representation,
// deduplicating self-join aliases of the same relation. An mmap-loaded
// representation that fails to decode has no instance and counts zero.
func baseTuples(rep *core.Representation) int {
	inst := rep.Instance()
	if inst == nil {
		return 0
	}
	seen := map[string]bool{}
	n := 0
	for _, a := range inst.Atoms {
		if name := a.Rel.Name(); !seen[name] {
			seen[name] = true
			n += a.Rel.Len()
		}
	}
	return n
}

// CacheStats snapshots the result-cache counters; ok is false when
// caching is off. In-process callers (experiment E21) read hit rates
// through this instead of re-parsing the /v1/stats JSON.
func (h *Handler) CacheStats() (CacheStats, bool) {
	if h.cache == nil {
		return CacheStats{}, false
	}
	return h.cache.Stats(), true
}

// flushBatch resolves the steady-state tuples-per-flush option.
func (h *Handler) flushBatch() int {
	if h.opts.FlushBatch > 0 {
		return h.opts.FlushBatch
	}
	return defaultFlushBatch
}

// Reload re-reads every snapshot path and atomically swaps the registry.
// On any load failure the old registry stays in place untouched. Requests
// in flight finish on the representation they started with; the old
// generation is released in the background once its last stream ends.
func (h *Handler) Reload() (uint64, error) {
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	if h.closed.Load() {
		return 0, core.ErrClosed
	}
	old := h.reg.Load()
	reg, err := h.loadRegistry(old.gen + 1)
	if err != nil {
		return 0, err
	}
	h.reg.Store(reg)
	if h.cache != nil {
		h.cache.SetGeneration(reg.gen)
	}
	h.reloads.Add(1)
	h.retired.Add(1)
	go func() {
		defer h.retired.Done()
		for _, e := range old.views {
			e.retire()
		}
	}()
	return reg.gen, nil
}

// Close retires the handler: new requests fail with 503 and in-flight
// streams finish (or are cut by their own request contexts). Close blocks
// until every stream has drained and is idempotent — concurrent and
// repeated calls all wait for the full drain, not just the first one.
func (h *Handler) Close() {
	h.closeOnce.Do(func() {
		defer close(h.closeDone)
		h.reloadMu.Lock()
		h.closed.Store(true)
		old := h.reg.Swap(nil)
		h.reloadMu.Unlock()
		if old != nil {
			for _, e := range old.views {
				e.retire()
			}
		}
		h.retired.Wait()
	})
	<-h.closeDone
}

// ServeHTTP dispatches the wire API.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// errorJSON writes a one-object JSON error body with the given status.
func (h *Handler) errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	h.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleQuery streams one access request in the negotiated encoding —
// NDJSON (one JSON array line per tuple) or the binary framing (wire.go) —
// in enumeration order. A stream that dies mid-way ends with the format's
// terminal error (the {"error": ...} object line, the error frame) so
// clients can tell a truncated enumeration from a complete one (see
// core.IterErr).
func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	start := time.Now()
	name := r.PathValue("view")

	maxBody := h.opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		// Only an actual size overflow is 413; any other read failure
		// (malformed chunking, client disconnect mid-body) is the
		// client's bad request, not an oversized one.
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		h.errorJSON(w, status, "request body: %v", err)
		return
	}
	req, err := ParseBindings(body)
	if err != nil {
		h.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	format := NegotiateFormat(r.Header.Get("Accept"))

	// An entry retired between our registry load and acquire (reload/close
	// raced us) refuses the reference; retry on the fresh registry so the
	// request lands wholly on one generation.
	for attempt := 0; attempt < 8; attempt++ {
		reg := h.reg.Load()
		if reg == nil {
			h.errorJSON(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		entry, ok := reg.views[name]
		if !ok {
			h.errorJSON(w, http.StatusNotFound, "unknown view %q (GET /v1/views lists the registry)", name)
			return
		}
		if !entry.acquire() {
			continue
		}
		h.streamQuery(w, r, entry, req, format, reg.gen, start)
		entry.release()
		return
	}
	h.errorJSON(w, http.StatusServiceUnavailable, "view %q is reloading, retry", name)
}

// streamQuery runs one acquired request to completion. gen is the
// generation of the registry the entry was acquired from — the cache keys
// on it, so a replayed stream always belongs to the generation this
// request loaded.
func (h *Handler) streamQuery(w http.ResponseWriter, r *http.Request, entry *viewEntry, req QueryRequest, format Format, gen uint64, start time.Time) {
	vb, err := entry.rep.Bind(req.Bindings)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrBadBinding) {
			status = http.StatusBadRequest
		}
		h.errorJSON(w, status, "%v", err)
		return
	}
	var flight *CacheFlight
	if h.cache != nil && req.Limit == 0 {
		res := h.cache.Acquire(entry.name, gen, format, string(vb.AppendEncode(nil)))
		if res.Hit {
			h.serveCached(w, entry, format, res.Body, res.Tuples, start)
			return
		}
		if res.Leader {
			flight = res.Flight
		} else if body, tuples, ok := res.Flight.Wait(r.Context()); ok {
			// Follower: the leader's bytes were produced under the same
			// generation this request acquired.
			h.serveCached(w, entry, format, body, tuples, start)
			return
		}
		// A failed flight (or our own context expiring while parked) falls
		// through to computing directly, with no flight: coalescing never
		// turns one stream's failure into another's.
	}
	h.streamLive(r.Context(), w, entry, vb, req.Limit, format, start, flight)
}

// serveCached replays one cached encoded stream, with the same headers,
// counters, and flush behavior a live complete stream would have had.
func (h *Handler) serveCached(w http.ResponseWriter, entry *viewEntry, format Format, body []byte, tuples int, start time.Time) {
	entry.requests.Add(1)
	w.Header().Set("X-Cqrep-View", entry.name)
	w.Header().Set("X-Cqrep-Free", strconv.Itoa(len(entry.rep.FreeNames())))
	w.Header().Set("Content-Type", format.MediaType())
	if tuples > 0 {
		h.delay.Add(time.Since(start))
	}
	w.Write(body)
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
	h.tuples.Add(uint64(tuples))
	entry.tuples.Add(uint64(tuples))
	h.streamsComplete.Add(1)
	entry.streamsComplete.Add(1)
	h.total.Add(time.Since(start))
}

// streamLive computes and streams one request from the backend, on this
// goroutine. A non-nil flight means this request leads a cache fill: the
// response bytes are teed into a capture and published on a complete
// stream, abandoned on any other outcome (so waiters fall back instead of
// hanging).
func (h *Handler) streamLive(ctx context.Context, w http.ResponseWriter, entry *viewEntry, vb relation.Tuple, limit int, format Format, start time.Time, flight *CacheFlight) {
	published := false
	if flight != nil {
		defer func() { // deferred so that a panicking enumeration cannot strand the waiters
			if !published {
				h.cache.Abandon(flight)
			}
		}()
	}
	entry.requests.Add(1)
	defer func() { h.total.Add(time.Since(start)) }()

	arity := len(entry.rep.FreeNames())
	w.Header().Set("X-Cqrep-View", entry.name)
	w.Header().Set("X-Cqrep-Free", strconv.Itoa(arity))
	var tee *CacheTee
	if flight != nil {
		tee = NewCacheTee(w, h.cache.MaxEntryBytes())
		w = tee
	}
	// Blocks are borrowed from the backend — a materialized bucket lends
	// sub-slices of itself — and only read.
	sw := NewStreamWriter(w, format, arity, h.flushBatch())
	disp, err := Deliver(ctx, sw, entry.src.QueryBlocks(ctx, vb), limit, func() { h.delay.Add(time.Since(start)) })
	n := sw.Wrote()
	h.tuples.Add(uint64(n))
	entry.tuples.Add(uint64(n))
	switch disp {
	case StreamErrored:
		if n == 0 {
			// Nothing was streamed yet — the stream header is only staged — so
			// the status line is still ours: fail properly instead of a 200
			// with an error trailer.
			h.errorJSON(w, http.StatusInternalServerError, "%v", err)
		} else {
			h.errors.Add(1)
		}
		h.streamsErrored.Add(1)
		entry.streamsErrored.Add(1)
	case StreamAborted:
		h.streamsAborted.Add(1)
		entry.streamsAborted.Add(1)
	default:
		h.streamsComplete.Add(1)
		entry.streamsComplete.Add(1)
		if tee != nil {
			if body, ok := tee.Captured(); ok {
				h.cache.Publish(flight, body, n)
				published = true
			}
		}
	}
}

// appendTupleJSON renders one tuple as a compact JSON array of integers.
func appendTupleJSON(dst []byte, t relation.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']', '\n')
}

// ViewInfo is one /v1/views registry row. EnumOrder is the declared
// enumeration order as free-variable positions, most significant first —
// the coordinator merges scattered per-shard streams under exactly this
// order, so it is part of the registry contract, not an internal detail.
type ViewInfo struct {
	Name       string   `json:"name"`
	Bound      []string `json:"bound"`
	Free       []string `json:"free"`
	EnumOrder  []int    `json:"enum_order"`
	Strategy   string   `json:"strategy"`
	Shards     int      `json:"shards"`
	Entries    int      `json:"entries"`
	BaseTuples int      `json:"base_tuples"`
	Snapshot   string   `json:"snapshot"`
	LoadedAt   string   `json:"loaded_at"`
}

// viewsResponse is the /v1/views body.
type viewsResponse struct {
	Generation uint64     `json:"generation"`
	Views      []ViewInfo `json:"views"`
}

func (h *Handler) handleViews(w http.ResponseWriter, r *http.Request) {
	reg := h.reg.Load()
	if reg == nil {
		h.errorJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	resp := viewsResponse{Generation: reg.gen}
	for _, name := range reg.names {
		e := reg.views[name]
		st := e.rep.Stats()
		resp.Views = append(resp.Views, ViewInfo{
			Name:       e.name,
			Bound:      e.rep.BoundNames(),
			Free:       e.rep.FreeNames(),
			EnumOrder:  e.rep.EnumOrder(),
			Strategy:   st.Strategy.String(),
			Shards:     st.Shards,
			Entries:    st.Entries,
			BaseTuples: e.baseTup(),
			Snapshot:   e.path,
			LoadedAt:   e.loadedAt.UTC().Format(time.RFC3339),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// LatencySummary reports an approximate latency distribution (power-of-two
// microsecond buckets; quantiles are bucket upper bounds).
type LatencySummary struct {
	Count uint64 `json:"count"`
	P50us int64  `json:"p50_us"`
	P99us int64  `json:"p99_us"`
}

// ViewStats is one per-view /v1/stats row. The streams_* counters split
// how streams on this view ended: complete (clean terminal, including
// limit-truncated), errored (terminal error delivered per the IterErr
// contract), aborted (client gone or shutdown mid-stream — no clean
// terminal, so it must not be mistaken for a served request).
type ViewStats struct {
	Name            string `json:"name"`
	Requests        uint64 `json:"requests"`
	Tuples          uint64 `json:"tuples"`
	StreamsComplete uint64 `json:"streams_complete"`
	StreamsErrored  uint64 `json:"streams_errored"`
	StreamsAborted  uint64 `json:"streams_aborted"`
	Entries         int    `json:"entries"`
	Shards          int    `json:"shards"`
	BaseTuples      int    `json:"base_tuples"`
	// Cache is this view's slice of the result-cache counters; nil (and
	// omitted from the JSON) when caching is off.
	Cache *ViewCacheStats `json:"cache,omitempty"`
	// WALReplayed counts update-log entries replayed into this view at
	// load (Options.WALDir); WALError carries a compaction failure — the
	// recovered state is served either way, the log just was not
	// truncated. Both are omitted when WAL recovery is off.
	WALReplayed int    `json:"wal_replayed,omitempty"`
	WALError    string `json:"wal_error,omitempty"`
}

// statsResponse is the /v1/stats body.
type statsResponse struct {
	UptimeMs        int64          `json:"uptime_ms"`
	Generation      uint64         `json:"generation"`
	Reloads         uint64         `json:"reloads"`
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
	Views []ViewStats `json:"views"`
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	reg := h.reg.Load()
	if reg == nil {
		h.errorJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	resp := statsResponse{
		UptimeMs:        time.Since(h.start).Milliseconds(),
		Generation:      reg.gen,
		Reloads:         h.reloads.Load(),
		Requests:        h.requests.Load(),
		Errors:          h.errors.Load(),
		Tuples:          h.tuples.Load(),
		FirstTuple:      h.delay.Summary(),
		Total:           h.total.Summary(),
		StreamsComplete: h.streamsComplete.Load(),
		StreamsErrored:  h.streamsErrored.Load(),
		StreamsAborted:  h.streamsAborted.Load(),
	}
	if h.cache != nil {
		cs := h.cache.Stats()
		resp.Cache = &cs
	}
	for _, name := range reg.names {
		e := reg.views[name]
		st := e.rep.Stats()
		row := ViewStats{
			Name:            e.name,
			Requests:        e.requests.Load(),
			Tuples:          e.tuples.Load(),
			StreamsComplete: e.streamsComplete.Load(),
			StreamsErrored:  e.streamsErrored.Load(),
			StreamsAborted:  e.streamsAborted.Load(),
			Entries:         st.Entries,
			Shards:          st.Shards,
			BaseTuples:      e.baseTup(),
		}
		if h.cache != nil {
			vc := h.cache.ViewStats(e.name)
			row.Cache = &vc
		}
		row.WALReplayed = e.wal.replayed
		if e.wal.compactErr != nil {
			row.WALError = e.wal.compactErr.Error()
		}
		resp.Views = append(resp.Views, row)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleHealth is process liveness: the handler is up and dispatching. It
// says nothing about views — a worker with zero attached shards is healthy.
func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ok": true})
}

// handleReady is serving readiness: every registered view must be loaded
// AND decodable. For mmap-loaded snapshots that means forcing the lazy
// decode (Ensure), so a readiness probe doubles as a warmup — payload
// corruption surfaces here instead of on the first real query. An
// Options.ReadyGate (worker join state, coordinator shard-map coverage)
// can hold readiness back beyond the registry checks.
func (h *Handler) handleReady(w http.ResponseWriter, r *http.Request) {
	reg := h.reg.Load()
	if reg == nil {
		h.errorJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if h.opts.ReadyGate != nil && !h.opts.ReadyGate() {
		h.errorJSON(w, http.StatusServiceUnavailable, "not ready: gate closed")
		return
	}
	walReplayed := 0
	for _, name := range reg.names {
		if err := reg.views[name].rep.Ensure(); err != nil {
			h.errorJSON(w, http.StatusServiceUnavailable, "view %q not decodable: %v", name, err)
			return
		}
		walReplayed += reg.views[name].wal.replayed
	}
	body := map[string]any{"ready": true, "views": len(reg.names), "generation": reg.gen}
	if h.opts.WALDir != "" {
		// A ready answer with WAL recovery armed means: every log was
		// replayed and the registry already reflects the recovered churn.
		body["wal_replayed"] = walReplayed
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// attachRequest is the POST /v1/attach body: serve the snapshot from
// Source under Name. Source is either a local file path or an http(s) URL
// (the coordinator's shardfile endpoint) that is fetched into SpoolDir
// first — the join-by-snapshot protocol of DESIGN.md §6.
type attachRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

func (h *Handler) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req attachRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil || req.Name == "" || req.Source == "" {
		h.errorJSON(w, http.StatusBadRequest, "attach wants {\"name\":..., \"source\": path-or-url}")
		return
	}
	path := req.Source
	if isHTTPURL(req.Source) {
		path, err = h.spoolFetch(r.Context(), req.Name, req.Source)
		if err != nil {
			h.errorJSON(w, http.StatusBadGateway, "fetch %s: %v", req.Source, err)
			return
		}
	}
	if err := h.Attach(req.Name, path); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		h.errorJSON(w, status, "attach %q: %v", req.Name, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"attached": req.Name})
}

func (h *Handler) handleDetach(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil || req.Name == "" {
		h.errorJSON(w, http.StatusBadRequest, "detach wants {\"name\": ...}")
		return
	}
	if err := h.Detach(req.Name); err != nil {
		status := http.StatusNotFound
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		h.errorJSON(w, status, "detach %q: %v", req.Name, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"detached": req.Name})
}

// isHTTPURL reports whether source names a fetchable URL rather than a
// local path.
func isHTTPURL(source string) bool {
	return strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://")
}

// spoolFetch downloads a snapshot into the spool directory and returns the
// local path. The name only seeds the temp-file prefix (sanitized), so a
// hostile name cannot escape the spool dir.
func (h *Handler) spoolFetch(ctx context.Context, name, url string) (string, error) {
	dir := h.opts.SpoolDir
	if dir == "" {
		dir = os.TempDir()
	} else if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	safe := make([]byte, 0, len(name))
	for _, c := range []byte(name) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	f, err := os.CreateTemp(dir, "cqrep-"+string(safe)+"-*.snap")
	if err != nil {
		return "", err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

func (h *Handler) handleReload(w http.ResponseWriter, r *http.Request) {
	gen, err := h.Reload()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		h.errorJSON(w, status, "reload failed, previous registry still serving: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"generation": gen})
}

// loadSnapshot reads one snapshot file through the core decoder — eagerly,
// or as a lazily-decoded mapping when mmap is set.
func loadSnapshot(path string, mmap bool) (*core.Representation, error) {
	if mmap {
		return core.OpenRepresentationMmap(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadRepresentation(f)
}

// LatencyHist is a lock-free latency histogram over power-of-two
// microsecond buckets — coarse, but constant-time on the request path and
// good enough for the p50/p99 health signal of /v1/stats. Exported so the
// coordinator can keep per-worker breakdowns with the same shape.
type LatencyHist struct {
	buckets [48]atomic.Uint64
}

// Add records one observation.
func (h *LatencyHist) Add(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us)) // bucket k holds [2^(k-1), 2^k) µs
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx].Add(1)
}

// Summary renders count and approximate p50/p99 (bucket upper bounds).
func (h *LatencyHist) Summary() LatencySummary {
	var counts [48]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	out := LatencySummary{Count: total}
	if total == 0 {
		return out
	}
	out.P50us = h.quantile(counts[:], total, 0.50)
	out.P99us = h.quantile(counts[:], total, 0.99)
	return out
}

func (h *LatencyHist) quantile(counts []uint64, total uint64, q float64) int64 {
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return int64(1) << i // upper bound of bucket i
		}
	}
	return int64(1) << (len(counts) - 1)
}
