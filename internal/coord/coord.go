// Package coord is the distributed serving tier (DESIGN.md §6): a
// coordinator that owns the shard map (view → shard → worker) and serves
// the exact client API of a single cqserve node — POST /v1/query/{view},
// /v1/views, /v1/stats — by routing bound-key requests to the one worker
// owning the key's shard and scattering free enumerations to every worker,
// k-way merging the per-shard streams in the backend's declared EnumOrder.
// Queries run through the node's own request pipeline (httpserve.Front),
// so status codes, error bodies, headers, caching and counters are the
// node's by construction; only how a request resolves is the
// coordinator's (query.go). The result is byte-identical to single-node
// serving: hash partitioning makes the shards disjoint, each shard
// enumerates in the composite's order, and the merge is the in-process
// sharded backend's own, over encoded rows (core.MergeRows).
//
// Workers join by snapshot: the coordinator decodes no snapshot. It reads
// each one's route card (core.ReadRouteCard: view, shard plan,
// enumeration order and entry counts, every checksum verified), copies
// every shard's nested frame verbatim into a self-contained snapshot file
// — the bytes core.WriteShard would write — and serves the files on
// GET /v1/shardfile/{view}/{i}. It keeps only the route card per view
// (viewMeta); a frame that passes its checksum but does not decode fails
// the joining worker's attach, and so does a shard whose decoded strategy,
// enumeration order or entry count — reported in the attach reply —
// disagrees with the card.
// A joining worker POSTs /v1/join; the coordinator pushes /v1/attach calls
// that tell the worker which shard files to fetch and serve (scoped names
// "V@i"), then swaps the shard map atomically. The swap uses the same
// refcount gate (httpserve.RetireGate) as /v1/reload: streams in flight keep
// the map generation they started on, and shards moved away from a worker
// are detached only after the old generation's last stream finishes — a
// rebalance never breaks an in-flight stream.
//
// Worker-to-coordinator streams always use the binary framing regardless
// of what the client negotiated: its explicit end/error terminals are what
// let the coordinator distinguish a worker that finished from a worker
// that died mid-stream (surfaced to the client as the IterErr-style
// terminal, never silent truncation), and its fixed-width frames are the
// rows the coordinator relays: each link lends them still encoded, the
// merge compares the values they decode to, and the same front, delivery
// loop and encoder the workers use copy them into a binary client's frames
// as they are, or decode them into an NDJSON client's lines.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/httpserve"
)

// Options configures a Coordinator.
type Options struct {
	// SelfURL is the base URL workers reach the coordinator on — the host
	// of the shardfile sources pushed in attach calls. Required before any
	// worker joins.
	SelfURL string
	// SpoolDir holds the exported per-shard snapshot files; empty means a
	// fresh temp directory.
	SpoolDir string
	// FlushBatch is the steady-state tuples-per-flush of client-facing
	// streams; <= 0 means the httpserve default. Byte identity with
	// a single node requires the same value on both.
	FlushBatch int
	// MaxBodyBytes caps a query request body; <= 0 means 1 MiB.
	MaxBodyBytes int64
	// HTTP is the client used for worker calls; nil means a dedicated
	// client with sane timeouts for control calls and none for streams.
	HTTP *http.Client
	// CacheBytes bounds the coordinator's merged-result cache
	// (httpserve.ResultCache): encoded client streams for repeated
	// (view, map-generation, binding, format) keys replay from memory —
	// zero network hops for a hot key. <= 0 disables caching. Join/move
	// bump the map generation, which invalidates stale entries by key.
	CacheBytes int64
}

// viewMeta is the coordinator's per-view route card, immutable after New.
// It holds no compiled structure: the workers answer, the card routes.
type viewMeta struct {
	view    *cq.View           // the full adorned view: names only, no data
	keyIdx  int                // position of the shard key in a bound valuation; -1 = scatter
	files   []string           // exported per-shard snapshot files, one per shard
	entries []int              // each shard's entry count, from the route card
	info    httpserve.ViewInfo // the /v1/views row, taken from the snapshot's route card
}

// checkAttached holds a worker's decoded shard to the route card: a card
// that is well formed but lies — another strategy, order or entry count —
// would have the merge run in the wrong order, so the attach fails and the
// shard stays unowned.
func (vm *viewMeta) checkAttached(shard int, got httpserve.AttachReply) error {
	want := vm.info.EnumOrder
	switch {
	case got.Strategy != vm.info.Strategy:
		return fmt.Errorf("worker decoded strategy %s, the route card says %s", got.Strategy, vm.info.Strategy)
	case (got.EnumOrder == nil) != (want == nil) || !slices.Equal(got.EnumOrder, want):
		return fmt.Errorf("worker's shard enumerates in %s, the route card says %s", orderName(got.EnumOrder), orderName(want))
	case got.Entries != vm.entries[shard]:
		return fmt.Errorf("worker's shard holds %d entries, the route card says %d", got.Entries, vm.entries[shard])
	}
	return nil
}

// shardMap is one immutable generation of the ownership table. Queries
// acquire it for their whole stream; a rebalance swaps the pointer and
// detaches moved shards only after the old generation drains.
type shardMap struct {
	httpserve.RetireGate
	gen    uint64
	owners map[string][]string // view → shard → worker base URL ("" unassigned)
}

// placement is one shard (its scoped name) on one worker.
type placement struct{ shard, worker string }

// workerStats is the per-worker latency/error breakdown surfaced by
// /v1/stats so scatter-gather tail latency is attributable to a node.
type workerStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	delay    httpserve.LatencyHist // coordinator-observed first tuple
}

// Coordinator owns the shard map and serves the client API over it.
type Coordinator struct {
	opts  Options
	mux   *http.ServeMux
	front *httpserve.Front

	views map[string]*viewMeta
	names []string // sorted

	// mu serializes membership changes and shard-map swaps (join, move).
	mu      sync.Mutex
	members []string
	smap    atomic.Pointer[shardMap]
	closed  atomic.Bool
	retired sync.WaitGroup

	// placeMu orders every attach call, with its attachedAt record, against
	// every delayed detach, with its check. attachedAt is the newest map
	// generation that attached each shard to each worker.
	placeMu    sync.Mutex
	attachedAt map[placement]uint64

	workersMu sync.Mutex
	workers   map[string]*workerStats
}

// New reads every snapshot's route card, copies its shard frames into the
// spool directory, and returns a coordinator with an empty membership: every shard is
// unassigned (queries 503) until workers join.
func New(paths []string, opts Options) (*Coordinator, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("coord: no snapshot paths")
	}
	if opts.SpoolDir == "" {
		dir, err := os.MkdirTemp("", "cqcoord-spool-")
		if err != nil {
			return nil, err
		}
		opts.SpoolDir = dir
	} else if err := os.MkdirAll(opts.SpoolDir, 0o777); err != nil {
		return nil, fmt.Errorf("coord: spool dir: %w", err)
	}
	c := &Coordinator{
		opts:       opts,
		views:      make(map[string]*viewMeta, len(paths)),
		workers:    make(map[string]*workerStats),
		attachedAt: make(map[placement]uint64),
	}
	for _, p := range paths {
		vm, err := c.loadView(p)
		if err != nil {
			return nil, err
		}
		if _, dup := c.views[vm.info.Name]; dup {
			return nil, fmt.Errorf("coord: duplicate view %q (snapshot %s)", vm.info.Name, p)
		}
		c.views[vm.info.Name] = vm
		c.names = append(c.names, vm.info.Name)
	}
	sort.Strings(c.names)
	// The merged-result cache keys on the shard-map generation, so
	// join/move invalidate stale entries by key.
	c.front = httpserve.NewFront(httpserve.Options{
		MaxBodyBytes: opts.MaxBodyBytes,
		FlushBatch:   opts.FlushBatch,
		CacheBytes:   opts.CacheBytes,
	}, http.StatusBadGateway, c.resolve)
	c.smap.Store(c.emptyMap())
	c.front.SetGeneration(c.smap.Load().gen)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query/{view}", c.front.ServeQuery)
	mux.HandleFunc("GET /v1/views", c.handleViews)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /healthz", c.front.ServeHealth)
	mux.HandleFunc("GET /readyz", c.handleReady)
	mux.HandleFunc("POST /v1/join", c.handleJoin)
	mux.HandleFunc("POST /v1/move", c.handleMove)
	mux.HandleFunc("GET /v1/map", c.handleMap)
	mux.HandleFunc("GET /v1/shardfile/{view}/{shard}", c.handleShardFile)
	c.mux = mux
	return c, nil
}

// loadView reads one snapshot's route card (core.ReadRouteCard), which
// checks the outer checksum and every shard frame's but decodes neither
// relations nor backends, copies each shard's frame verbatim into its
// spool file, and returns the route card. A frame whose checksum holds but
// whose contents do not decode fails the attach of the worker it is
// assigned to, before that worker serves it.
func (c *Coordinator) loadView(path string) (*viewMeta, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	card, err := core.ReadRouteCard(raw)
	if err != nil {
		return nil, fmt.Errorf("coord: %s: %w", path, err)
	}
	name, entries := card.View.Name, 0
	for _, n := range card.Entries {
		entries += n
	}
	vm := &viewMeta{
		view:    card.View,
		keyIdx:  card.KeyIndex,
		entries: card.Entries,
		info: httpserve.ViewInfo{
			Name:  name,
			Bound: card.Bound,
			Free:  card.Free,
			// Theorem 2's order depends on the stored decomposition, so it
			// comes from the snapshot's card, not from the view.
			EnumOrder:  card.EnumOrder,
			Strategy:   card.Strategy.String(),
			Shards:     card.Shards,
			Entries:    entries,
			BaseTuples: 0, // base data lives on the workers
			Snapshot:   path,
			LoadedAt:   time.Now().UTC().Format(time.RFC3339),
		},
	}
	for i, fr := range card.Frames {
		fp := filepath.Join(c.opts.SpoolDir, fmt.Sprintf("%s@%d.snap", httpserve.FileStem(name), i))
		if err := os.WriteFile(fp, raw[fr.Off:fr.Off+fr.Len], 0o666); err != nil {
			return nil, fmt.Errorf("coord: exporting shard %d of %s: %w", i, name, err)
		}
		vm.files = append(vm.files, fp)
	}
	return vm, nil
}

// orderName names an enumeration order for an error message.
func orderName(order []int) string {
	if order == nil {
		return "head order"
	}
	return fmt.Sprintf("order %v", order)
}

// emptyMap is generation 1 with every shard unassigned.
func (c *Coordinator) emptyMap() *shardMap {
	m := &shardMap{gen: 1, owners: make(map[string][]string, len(c.views))}
	for name, vm := range c.views {
		m.owners[name] = make([]string, vm.info.Shards)
	}
	return m
}

// scopedName is the registry key shard i of a view serves under on a
// worker: several shards of one view can live on one node without
// colliding, and the coordinator can address exactly one of them.
func scopedName(view string, shard int) string {
	return view + "@" + strconv.Itoa(shard)
}

func (c *Coordinator) workerClient(base string) *httpserve.Client {
	return &httpserve.Client{Base: base, HTTP: c.opts.HTTP}
}

// statsFor returns the per-worker stat block, creating it on first use.
func (c *Coordinator) statsFor(worker string) *workerStats {
	c.workersMu.Lock()
	defer c.workersMu.Unlock()
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerStats{}
		c.workers[worker] = ws
	}
	return ws
}

// Join registers a worker and rebalances: the desired placement spreads
// the global shard list round-robin over the members in join order, so
// each join moves roughly 1/n of the shards onto the new node. A rejoin of
// a known member (worker restart) force-pushes its assignment again.
func (c *Coordinator) Join(ctx context.Context, workerURL string) error {
	workerURL = strings.TrimRight(workerURL, "/")
	if workerURL == "" {
		return fmt.Errorf("coord: join needs the worker's base URL")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return core.ErrClosed
	}
	known := false
	for _, m := range c.members {
		if m == workerURL {
			known = true
			break
		}
	}
	if !known {
		c.members = append(c.members, workerURL)
	}
	if err := c.applyAssignment(ctx, c.desired(), workerURL); err != nil {
		if !known { // a failed first join must not leave a dead member routing targets
			c.members = c.members[:len(c.members)-1]
		}
		return err
	}
	return nil
}

// Move reassigns one shard to a specific member and swaps the map — the
// manual rebalance the dist smoke uses to prove byte identity survives
// shard movement.
func (c *Coordinator) Move(ctx context.Context, view string, shard int, workerURL string) error {
	workerURL = strings.TrimRight(workerURL, "/")
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return core.ErrClosed
	}
	vm, ok := c.views[view]
	if !ok {
		return fmt.Errorf("coord: unknown view %q", view)
	}
	if shard < 0 || shard >= vm.info.Shards {
		return fmt.Errorf("coord: view %q has shards [0,%d), not %d", view, vm.info.Shards, shard)
	}
	member := false
	for _, m := range c.members {
		if m == workerURL {
			member = true
			break
		}
	}
	if !member {
		return fmt.Errorf("coord: %q has not joined", workerURL)
	}
	desired := c.currentOwners()
	desired[view][shard] = workerURL
	return c.applyAssignment(ctx, desired, "")
}

// desired computes the round-robin placement of the global shard list over
// the current members, in sorted-view then shard-index order.
func (c *Coordinator) desired() map[string][]string {
	out := make(map[string][]string, len(c.views))
	idx := 0
	for _, name := range c.names {
		owners := make([]string, c.views[name].info.Shards)
		for i := range owners {
			if len(c.members) > 0 {
				owners[i] = c.members[idx%len(c.members)]
			}
			idx++
		}
		out[name] = owners
	}
	return out
}

// currentOwners deep-copies the live map's ownership table.
func (c *Coordinator) currentOwners() map[string][]string {
	cur := c.smap.Load()
	out := make(map[string][]string, len(cur.owners))
	for v, owners := range cur.owners {
		out[v] = append([]string(nil), owners...)
	}
	return out
}

// applyAssignment drives the map from its current ownership to desired:
// attach every shard to its new owner first (the worker fetches the shard
// file from SelfURL), then swap the map atomically, then — after the old
// generation's last in-flight stream finishes — detach the moved shards
// from their previous owners, unless a later assignment gave a shard back
// to its previous owner meanwhile. forcePush re-attaches shards already
// assigned to that worker (rejoin after restart). Any attach failure
// aborts with the old map untouched.
func (c *Coordinator) applyAssignment(ctx context.Context, desired map[string][]string, forcePush string) error {
	if c.opts.SelfURL == "" {
		return fmt.Errorf("coord: Options.SelfURL unset, workers cannot fetch shard files")
	}
	old := c.smap.Load()
	type move struct {
		view     string
		shard    int
		from, to string
	}
	var moves []move
	for _, name := range c.names {
		for i := 0; i < c.views[name].info.Shards; i++ {
			from, to := old.owners[name][i], desired[name][i]
			if to != "" && (to != from || to == forcePush) {
				moves = append(moves, move{view: name, shard: i, from: from, to: to})
			}
		}
	}
	base := strings.TrimRight(c.opts.SelfURL, "/")
	next := &shardMap{gen: old.gen + 1, owners: desired}
	for _, mv := range moves {
		name := scopedName(mv.view, mv.shard)
		c.placeMu.Lock()
		got, err := c.workerClient(mv.to).Attach(ctx, name, fmt.Sprintf("%s/v1/shardfile/%s/%d", base, mv.view, mv.shard))
		if err == nil {
			err = c.views[mv.view].checkAttached(mv.shard, got)
		}
		if err == nil {
			c.attachedAt[placement{name, mv.to}] = next.gen
		}
		c.placeMu.Unlock()
		if err != nil {
			return fmt.Errorf("coord: attaching %s to %s: %w", name, mv.to, err)
		}
	}
	c.smap.Store(next)
	// Entries keyed to older generations are now unreachable by any new
	// request (they key on the generation they load); drop them so the
	// budget is spent on the live generation only.
	c.front.SetGeneration(next.gen)
	c.retired.Add(1)
	go func() {
		defer c.retired.Done()
		old.Retire()
		// The old generation has drained: no stream can still be reading a
		// moved shard from its previous owner. But a later assignment may
		// have given the shard back to that owner while this generation was
		// pinned (A→B→A); detaching it then would unserve a shard a live map
		// routes there, so skip it — whichever move takes it away again
		// detaches it. placeMu keeps an attach from landing between the
		// check and the detach, without holding detaches up behind a whole
		// join. Detach is best-effort — a dead worker has nothing to detach.
		c.placeMu.Lock()
		defer c.placeMu.Unlock()
		for _, mv := range moves {
			name := scopedName(mv.view, mv.shard)
			if mv.from == "" || mv.from == mv.to || c.attachedAt[placement{name, mv.from}] > next.gen {
				continue
			}
			// Detach outlives the move request on purpose, so it detaches
			// from ctx's cancellation but keeps its values.
			dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
			c.workerClient(mv.from).Detach(dctx, name)
			cancel()
		}
	}()
	return nil
}

// Close retires the coordinator: the map is swapped out, in-flight streams
// finish on their generation, and Close blocks until they have.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed.Swap(true) {
		c.mu.Unlock()
		c.retired.Wait()
		return
	}
	old := c.smap.Swap(nil)
	c.mu.Unlock()
	if old != nil {
		old.Retire()
	}
	c.retired.Wait()
}

// ServeHTTP dispatches the coordinator API.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// CacheStats snapshots the merged-result cache counters; ok is false
// when caching is off.
func (c *Coordinator) CacheStats() (httpserve.CacheStats, bool) { return c.front.CacheStats() }

// handleReady reports ready only when every shard of every view has an
// owner: a coordinator with coverage gaps would 503 a routed request, so
// it must not receive traffic yet.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	sm := c.smap.Load()
	if sm == nil {
		c.front.Error(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	assigned, total := 0, 0
	for _, name := range c.names {
		for i, owner := range sm.owners[name] {
			total++
			if owner == "" {
				c.front.Error(w, http.StatusServiceUnavailable, "shard %s unassigned (%d/%d assigned)", scopedName(name, i), assigned, total)
				return
			}
			assigned++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ready": true, "shards": total, "workers": len(c.membersSnapshot()), "generation": sm.gen})
}

func (c *Coordinator) membersSnapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.members...)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.URL == "" {
		c.front.Error(w, http.StatusBadRequest, "join wants {\"url\": worker-base-url}")
		return
	}
	if err := c.Join(r.Context(), req.URL); err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		c.front.Error(w, status, "join %s: %v", req.URL, err)
		return
	}
	sm := c.smap.Load()
	owned := 0
	if sm != nil {
		for _, owners := range sm.owners {
			for _, o := range owners {
				if o == strings.TrimRight(req.URL, "/") {
					owned++
				}
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"joined": req.URL, "shards": owned})
}

func (c *Coordinator) handleMove(w http.ResponseWriter, r *http.Request) {
	var req struct {
		View   string `json:"view"`
		Shard  int    `json:"shard"`
		Worker string `json:"worker"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.View == "" || req.Worker == "" {
		c.front.Error(w, http.StatusBadRequest, "move wants {\"view\":..., \"shard\":..., \"worker\":...}")
		return
	}
	if err := c.Move(r.Context(), req.View, req.Shard, req.Worker); err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		c.front.Error(w, status, "move: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"moved": scopedName(req.View, req.Shard), "worker": req.Worker})
}

func (c *Coordinator) handleMap(w http.ResponseWriter, r *http.Request) {
	sm := c.smap.Load()
	if sm == nil {
		c.front.Error(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation": sm.gen,
		"members":    c.membersSnapshot(),
		"owners":     sm.owners,
	})
}

func (c *Coordinator) handleShardFile(w http.ResponseWriter, r *http.Request) {
	vm, ok := c.views[r.PathValue("view")]
	if !ok {
		c.front.Error(w, http.StatusNotFound, "unknown view %q", r.PathValue("view"))
		return
	}
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 || shard >= vm.info.Shards {
		c.front.Error(w, http.StatusNotFound, "view %q has shards [0,%d)", vm.info.Name, vm.info.Shards)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, vm.files[shard])
}

func (c *Coordinator) handleViews(w http.ResponseWriter, r *http.Request) {
	sm := c.smap.Load()
	if sm == nil {
		c.front.Error(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	type viewsResponse struct {
		Generation uint64               `json:"generation"`
		Views      []httpserve.ViewInfo `json:"views"`
	}
	resp := viewsResponse{Generation: sm.gen}
	for _, name := range c.names {
		resp.Views = append(resp.Views, c.views[name].info)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// WorkerReport is one per-worker /v1/stats row: the coordinator-observed
// request count, error count, and first-tuple latency of its streams to
// that worker — the breakdown that makes scatter-gather tail latency
// attributable.
type WorkerReport struct {
	URL        string                   `json:"url"`
	Requests   uint64                   `json:"requests"`
	Errors     uint64                   `json:"errors"`
	FirstTuple httpserve.LatencySummary `json:"first_tuple"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	sm := c.smap.Load()
	if sm == nil {
		c.front.Error(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	c.workersMu.Lock()
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	reports := make([]WorkerReport, 0, len(urls))
	for _, u := range urls {
		ws := c.workers[u]
		reports = append(reports, WorkerReport{
			URL:        u,
			Requests:   ws.requests.Load(),
			Errors:     ws.errors.Load(),
			FirstTuple: ws.delay.Summary(),
		})
	}
	c.workersMu.Unlock()
	// The node's own front block plus the per-worker breakdown, so one
	// stats consumer (cqload, the repository benchmark) reads either tier.
	resp := struct {
		httpserve.FrontStats
		Workers []WorkerReport `json:"workers"`
	}{c.front.Stats(sm.gen), reports}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
