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
// Queries run through the Front (front.go), the request pipeline the
// coordinator (internal/coord) runs too; the node resolves a request to a
// refcounted registry entry, which enumerates block by block
// (core.Representation.QueryBlocks) on the request's own goroutine, so its
// context — client disconnect, shutdown — cuts the enumeration directly.
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
	front *Front

	// specs is the registry recipe: Reload re-reads it, Attach/Detach
	// mutate it. Guarded by reloadMu.
	specs []SnapshotSpec

	// reg is the current registry; queries load it once and hold a
	// reference on their entry for their whole stream, so a concurrent
	// reload can swap the registry without tearing anyone's view.
	reg       atomic.Pointer[registry]
	reloadMu  sync.Mutex // serializes Reload/Close swaps
	reloads   atomic.Uint64
	closed    atomic.Bool
	closeOnce sync.Once
	closeDone chan struct{}  // closed once every stream has drained
	retired   sync.WaitGroup // background retire goroutines
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
// it. It is the Target a node's queries resolve to; the gate's Release is
// the Target's.
type viewEntry struct {
	RetireGate
	name     string
	path     string
	rep      *core.Representation
	src      blockSource // rep, except under test
	loadedAt time.Time
	counters StreamCounters
	baseTup  func() int // lazy: materializes mmap-loaded representations
	wal      walStatus  // recovery outcome when Options.WALDir is set
}

func (e *viewEntry) Name() string              { return e.name }
func (e *viewEntry) Rep() *core.Representation { return e.rep }
func (e *viewEntry) Counters() *StreamCounters { return &e.counters }
func (e *viewEntry) Open(ctx context.Context, vb relation.Tuple, _ QueryRequest) (core.BlockIterator, func(), error) {
	return e.src.QueryBlocks(ctx, vb), nil, nil
}

// resolve is the node's Resolver: the registry lookup and the entry
// acquire. An entry retired between the registry load and the acquire (a
// reload or close raced us) refuses the reference; retry on the fresh
// registry so the request lands wholly on one generation.
func (h *Handler) resolve(name string) (Target, uint64, error) {
	for attempt := 0; attempt < 8; attempt++ {
		reg := h.reg.Load()
		if reg == nil {
			return nil, 0, StatusErrorf(http.StatusServiceUnavailable, "server is shutting down")
		}
		entry, ok := reg.views[name]
		if !ok {
			return nil, 0, StatusErrorf(http.StatusNotFound, "unknown view %q (GET /v1/views lists the registry)", name)
		}
		if entry.Acquire() {
			return entry, reg.gen, nil
		}
	}
	return nil, 0, StatusErrorf(http.StatusServiceUnavailable, "view %q is reloading, retry", name)
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
	h := &Handler{opts: opts, specs: append([]SnapshotSpec(nil), specs...), closeDone: make(chan struct{})}
	h.front = NewFront(opts, http.StatusInternalServerError, h.resolve)
	reg, err := h.loadRegistry(1)
	if err != nil {
		return nil, err
	}
	h.reg.Store(reg)
	h.front.SetGeneration(reg.gen)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query/{view}", h.front.ServeQuery)
	mux.HandleFunc("GET /v1/views", h.handleViews)
	mux.HandleFunc("GET /v1/stats", h.handleStats)
	mux.HandleFunc("POST /v1/reload", h.handleReload)
	mux.HandleFunc("GET /healthz", h.front.ServeHealth)
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
	rep, err := LoadSnapshot(spec.Path, h.opts.Mmap)
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
	h.front.SetGeneration(reg.gen)

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
			replaced.Retire()
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
	h.front.SetGeneration(reg.gen)

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
		gone.Retire()
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
func (h *Handler) CacheStats() (CacheStats, bool) { return h.front.CacheStats() }

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
	h.front.SetGeneration(reg.gen)
	h.reloads.Add(1)
	h.retired.Add(1)
	go func() {
		defer h.retired.Done()
		for _, e := range old.views {
			e.Retire()
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
				e.Retire()
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
		h.front.Error(w, http.StatusServiceUnavailable, "server is shutting down")
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

// statsResponse is the /v1/stats body: the front's block, the reload
// count and the per-view rows.
type statsResponse struct {
	FrontStats
	Reloads uint64      `json:"reloads"`
	Views   []ViewStats `json:"views"`
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	reg := h.reg.Load()
	if reg == nil {
		h.front.Error(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	resp := statsResponse{FrontStats: h.front.Stats(reg.gen), Reloads: h.reloads.Load()}
	for _, name := range reg.names {
		e := reg.views[name]
		st := e.rep.Stats()
		row := ViewStats{
			Name:            e.name,
			Requests:        e.counters.requests.Load(),
			Tuples:          e.counters.tuples.Load(),
			StreamsComplete: e.counters.complete.Load(),
			StreamsErrored:  e.counters.errored.Load(),
			StreamsAborted:  e.counters.aborted.Load(),
			Entries:         st.Entries,
			Shards:          st.Shards,
			BaseTuples:      e.baseTup(),
		}
		if cache := h.front.cache; cache != nil {
			vc := cache.ViewStats(e.name)
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

// handleReady is serving readiness: every registered view must be loaded
// AND decodable. For mmap-loaded snapshots that means forcing the lazy
// decode (Ensure), so a readiness probe doubles as a warmup — payload
// corruption surfaces here instead of on the first real query. An
// Options.ReadyGate (worker join state, coordinator shard-map coverage)
// can hold readiness back beyond the registry checks.
func (h *Handler) handleReady(w http.ResponseWriter, r *http.Request) {
	reg := h.reg.Load()
	if reg == nil {
		h.front.Error(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if h.opts.ReadyGate != nil && !h.opts.ReadyGate() {
		h.front.Error(w, http.StatusServiceUnavailable, "not ready: gate closed")
		return
	}
	walReplayed := 0
	for _, name := range reg.names {
		if err := reg.views[name].rep.Ensure(); err != nil {
			h.front.Error(w, http.StatusServiceUnavailable, "view %q not decodable: %v", name, err)
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
		h.front.Error(w, http.StatusBadRequest, "attach wants {\"name\":..., \"source\": path-or-url}")
		return
	}
	path := req.Source
	if isHTTPURL(req.Source) {
		path, err = h.spoolFetch(r.Context(), req.Name, req.Source)
		if err != nil {
			h.front.Error(w, http.StatusBadGateway, "fetch %s: %v", req.Source, err)
			return
		}
	}
	if err := h.Attach(req.Name, path); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		h.front.Error(w, status, "attach %q: %v", req.Name, err)
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
		h.front.Error(w, http.StatusBadRequest, "detach wants {\"name\": ...}")
		return
	}
	if err := h.Detach(req.Name); err != nil {
		status := http.StatusNotFound
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		h.front.Error(w, status, "detach %q: %v", req.Name, err)
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
	f, err := os.CreateTemp(dir, "cqrep-"+FileStem(name)+"-*.snap")
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
		h.front.Error(w, status, "reload failed, previous registry still serving: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"generation": gen})
}

// FileStem maps a view or registry name onto a filesystem-safe file stem:
// every byte outside [A-Za-z0-9._-] becomes '_', so a hostile name cannot
// leave the directory it names a file in.
func FileStem(name string) string {
	out := make([]byte, 0, len(name))
	for _, c := range []byte(name) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// LoadSnapshot reads one snapshot file through the core decoder — eagerly,
// or as a lazily-decoded mapping when mmap is set.
func LoadSnapshot(path string, mmap bool) (*core.Representation, error) {
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
// good enough for the p50/p99 health signal of /v1/stats. Exported because
// the coordinator also keeps a per-worker first-tuple breakdown.
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
