package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// query.go is the coordinator's data path: route or scatter, merge, and
// re-encode. A bound-key request opens exactly one worker stream (the
// shard relation.ShardOf names — the partitioner's own hash, so routing
// can never disagree with placement); a free enumeration opens one stream
// per shard. Each worker link is a block cursor that decodes a frame into
// one reused slab, and core.MergeBlocks — the in-process sharded backend's
// own merge — lends runs of those blocks in the view's EnumOrder: a routed
// request passes blocks straight through, and a scatter whose shard key
// leads EnumOrder moves whole frames. Hash partitioning makes the shards
// disjoint, so the merged stream is byte-identical to a single node's.
// httpserve.Deliver, the node's own delivery loop, re-encodes it into the
// client's format, pushing closed frames to the client only before a
// worker read that may wait.
//
// The failure discipline mirrors core.IterErr: the first worker-stream
// error stops the merge immediately — merging past a dead shard would
// emit a gapped result that looks complete — and reaches the client as
// the negotiated format's terminal error (or a real 502 when nothing has
// been streamed yet). A worker that dies mid-stream shows up as binary
// truncation on the coordinator's side, never as a clean end, because the
// worker link always uses the framed binary encoding.

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	c.requests.Add(1)
	start := time.Now()
	vm, ok := c.views[r.PathValue("view")]
	if !ok {
		c.errorJSON(w, http.StatusNotFound, "unknown view %q (GET /v1/views lists the registry)", r.PathValue("view"))
		return
	}
	maxBody := c.opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		c.errorJSON(w, status, "request body: %v", err)
		return
	}
	req, err := httpserve.ParseBindings(body)
	if err != nil {
		c.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	vb, err := vm.rep.Bind(req.Bindings)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrBadBinding) {
			status = http.StatusBadRequest
		}
		c.errorJSON(w, status, "%v", err)
		return
	}
	format := httpserve.NegotiateFormat(r.Header.Get("Accept"))

	sm := c.smap.Load()
	if sm == nil || !sm.acquire() {
		// The map is swapped strictly before the old generation retires, so
		// one reload suffices (unlike a node's view entries, a map cannot retire
		// between Load and acquire more than transiently).
		if sm = c.smap.Load(); sm == nil || !sm.acquire() {
			c.errorJSON(w, http.StatusServiceUnavailable, "coordinator is shutting down")
			return
		}
	}
	defer sm.release()

	shards := make([]int, 0, vm.shards)
	if vm.keyIdx >= 0 {
		shards = append(shards, relation.ShardOf(vb[vm.keyIdx], vm.shards))
	} else {
		for i := 0; i < vm.shards; i++ {
			shards = append(shards, i)
		}
	}
	owners := sm.owners[vm.name]
	for _, s := range shards {
		if owners[s] == "" {
			c.errorJSON(w, http.StatusServiceUnavailable, "shard %s has no worker yet", scopedName(vm.name, s))
			return
		}
	}

	// The merged-result cache sits above the fan-out: a hit replays the
	// encoded client stream with zero worker hops. The key carries the
	// acquired map generation, so a rebalance invalidates by construction
	// — a hit is always bytes merged under the generation this request
	// itself holds a reference on.
	var flight *httpserve.CacheFlight
	if c.cache != nil && req.Limit == 0 {
		res := c.cache.Acquire(vm.name, sm.gen, format, string(vb.AppendEncode(nil)))
		if res.Hit {
			c.serveCached(w, format, res.Body, res.Tuples, start)
			return
		}
		if res.Leader {
			flight = res.Flight
		} else if body, tuples, ok := res.Flight.Wait(r.Context()); ok {
			c.serveCached(w, format, body, tuples, start)
			return
		}
		// A failed flight falls through to a direct scatter (no flight):
		// coalescing never turns the leader's failure into ours.
	}

	disp := c.runScatter(w, r, vm, owners, shards, req, format, start, flight)
	switch disp {
	case httpserve.StreamErrored:
		c.streamsErrored.Add(1)
	case httpserve.StreamAborted:
		c.streamsAborted.Add(1)
	default:
		c.streamsComplete.Add(1)
	}
	c.total.Add(time.Since(start))
}

// serveCached replays one cached merged stream with the counters a live
// complete scatter would have bumped.
func (c *Coordinator) serveCached(w http.ResponseWriter, format httpserve.Format, body []byte, tuples int, start time.Time) {
	w.Header().Set("Content-Type", format.MediaType())
	if tuples > 0 {
		c.delay.Add(time.Since(start))
	}
	w.Write(body)
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
	c.tuples.Add(uint64(tuples))
	c.streamsComplete.Add(1)
	c.total.Add(time.Since(start))
}

// runScatter wraps streamScatter with the cache-fill discipline: a led
// flight tees the response bytes and publishes them on a complete stream,
// or is abandoned on any other outcome so waiters fall back.
func (c *Coordinator) runScatter(w http.ResponseWriter, r *http.Request, vm *viewMeta, owners []string, shards []int, req httpserve.QueryRequest, format httpserve.Format, start time.Time, flight *httpserve.CacheFlight) httpserve.Disposition {
	var tee *httpserve.CacheTee
	if flight != nil {
		tee = httpserve.NewCacheTee(w, c.cache.MaxEntryBytes())
		w = tee
	}
	disp, n := c.streamScatter(w, r, vm, owners, shards, req, format, start)
	// One add per stream: concurrent merge loops bumping the shared counter
	// per tuple only traded its cache line back and forth.
	c.tuples.Add(uint64(n))
	if flight == nil {
		return disp
	}
	if disp == httpserve.StreamComplete {
		if body, ok := tee.Captured(); ok {
			c.cache.Publish(flight, body, n)
			return disp
		}
	}
	c.cache.Abandon(flight)
	return disp
}

// workerCursor is one worker stream as a merge input: its blocks, the
// per-worker first-tuple delay and error count recorded as they happen,
// and a terminal error that names the worker and shard.
type workerCursor struct {
	blocks core.BlockIterator
	st     httpserve.Stream
	ws     *workerStats
	start  time.Time
	err    error
	worker string
	shard  int
	seen   bool
}

func (wc *workerCursor) NextBlock(max int) []relation.Tuple {
	blk := wc.blocks.NextBlock(max)
	switch {
	case len(blk) > 0 && !wc.seen:
		wc.seen = true
		wc.ws.delay.Add(time.Since(wc.start))
	case len(blk) == 0 && wc.err == nil:
		// nil = complete; anything else is a worker error or a mid-stream
		// death, which the binary framing shows as truncation.
		if err := core.IterErr(wc.blocks); err != nil {
			wc.fail(err)
		}
	}
	return blk
}

func (wc *workerCursor) Ready() bool { return core.Ready(wc.blocks) }
func (wc *workerCursor) Err() error  { return wc.err }

func (wc *workerCursor) fail(err error) {
	wc.ws.errors.Add(1)
	wc.err = fmt.Errorf("worker %s shard %d: %w", wc.worker, wc.shard, err)
}

// streamScatter opens the worker streams and delivers their merge in the
// client's format, returning the disposition and the tuple count.
func (c *Coordinator) streamScatter(w http.ResponseWriter, r *http.Request, vm *viewMeta, owners []string, shards []int, req httpserve.QueryRequest, format httpserve.Format, start time.Time) (httpserve.Disposition, int) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	cursors := make([]*workerCursor, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wc := &workerCursor{worker: owners[s], shard: s, ws: c.statsFor(owners[s]), start: start}
		cursors[i] = wc
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc.ws.requests.Add(1)
			st, err := c.workerClient(wc.worker).Open(ctx, scopedName(vm.name, wc.shard), httpserve.QueryOptions{
				Bindings: req.Bindings,
				Limit:    req.Limit, // a merged prefix of L draws only from per-shard prefixes of L
				Format:   httpserve.FormatBinary,
			})
			if err != nil {
				wc.fail(err)
				return
			}
			wc.st, wc.blocks = st, core.AsBlocks(ctx, st)
		}()
	}
	wg.Wait()
	defer func() {
		for _, wc := range cursors {
			if wc.st != nil {
				wc.st.Close()
			}
		}
	}()
	its := make([]core.BlockIterator, len(cursors))
	for i, wc := range cursors {
		if wc.st == nil {
			c.errorJSON(w, http.StatusBadGateway, "%v", wc.err)
			return httpserve.StreamErrored, 0
		}
		its[i] = wc
	}

	sw := httpserve.NewStreamWriter(w, format, vm.arity, c.opts.FlushBatch)
	disp, err := httpserve.Deliver(ctx, sw, core.MergeBlocks(vm.enumOrder, its), req.Limit, func() { c.delay.Add(time.Since(start)) })
	if disp == httpserve.StreamErrored {
		if sw.Wrote() == 0 {
			c.errorJSON(w, http.StatusBadGateway, "%v", err)
		} else {
			c.errors.Add(1)
		}
	}
	return disp, sw.Wrote()
}
