package coord

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
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
// per shard and k-way merges their heads under the view's EnumOrder with
// ties broken by shard index, the same comparison the in-process sharded
// backend's merge iterator uses. Hash partitioning makes the shards
// disjoint, so the merged stream is byte-identical to a single node's.
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
	case streamErrored:
		c.streamsErrored.Add(1)
	case streamAborted:
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
func (c *Coordinator) runScatter(w http.ResponseWriter, r *http.Request, vm *viewMeta, owners []string, shards []int, req httpserve.QueryRequest, format httpserve.Format, start time.Time, flight *httpserve.CacheFlight) streamDisposition {
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
	if disp == streamComplete {
		if body, ok := tee.Captured(); ok {
			c.cache.Publish(flight, body, n)
			return disp
		}
	}
	c.cache.Abandon(flight)
	return disp
}

// streamDisposition mirrors httpserve's buckets: complete (clean terminal,
// including limit-truncated), errored (terminal error delivered), aborted
// (client gone mid-stream, no clean terminal).
type streamDisposition int

const (
	streamComplete streamDisposition = iota
	streamErrored
	streamAborted
)

// shardStream is one open worker stream plus its merge head.
type shardStream struct {
	shard    int
	worker   string
	ws       *workerStats
	st       httpserve.Stream
	head     relation.Tuple
	live     bool // head holds an undelivered tuple
	sawTuple bool
	err      error
}

// advance pulls the next head; on exhaustion it records the stream's
// terminal verdict (nil = complete, anything else = worker error or
// mid-stream death seen as binary truncation).
func (ss *shardStream) advance(start time.Time) {
	t, ok := ss.st.Next()
	if !ok {
		ss.live = false
		ss.err = ss.st.Err()
		if ss.err != nil {
			ss.ws.errors.Add(1)
		}
		return
	}
	if !ss.sawTuple {
		ss.sawTuple = true
		ss.ws.delay.Add(time.Since(start))
	}
	ss.head, ss.live = t, true
}

// streamScatter opens the worker streams, merges, and re-encodes into the
// client's format, returning the disposition and the merged tuple count.
func (c *Coordinator) streamScatter(w http.ResponseWriter, r *http.Request, vm *viewMeta, owners []string, shards []int, req httpserve.QueryRequest, format httpserve.Format, start time.Time) (streamDisposition, int) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	streams := make([]*shardStream, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		ss := &shardStream{shard: s, worker: owners[s], ws: c.statsFor(owners[s])}
		streams[i] = ss
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss.ws.requests.Add(1)
			st, err := c.workerClient(ss.worker).Open(ctx, scopedName(vm.name, ss.shard), httpserve.QueryOptions{
				Bindings: req.Bindings,
				Limit:    req.Limit, // a merged prefix of L draws only from per-shard prefixes of L
				Format:   httpserve.FormatBinary,
			})
			if err != nil {
				ss.err = err
				ss.ws.errors.Add(1)
				return
			}
			ss.st = st
		}()
	}
	wg.Wait()
	defer func() {
		for _, ss := range streams {
			if ss.st != nil {
				ss.st.Close()
			}
		}
	}()
	for _, ss := range streams {
		if ss.st == nil {
			c.errorJSON(w, http.StatusBadGateway, "worker %s shard %d: %v", ss.worker, ss.shard, ss.err)
			return streamErrored, 0
		}
	}

	sw := httpserve.NewStreamWriter(w, format, vm.arity, c.opts.FlushBatch)
	for _, ss := range streams {
		ss.advance(start)
	}
	n := 0
	for {
		// The first shard error wins and stops the merge: past it the
		// merged order can no longer be trusted, and a gapped "complete"
		// stream is exactly the silent truncation the terminal forbids.
		for _, ss := range streams {
			if !ss.live && ss.err != nil {
				return c.failStream(w, sw, ss), n
			}
		}
		var best *shardStream
		for _, ss := range streams {
			if ss.live && (best == nil || tupleLess(ss.head, best.head, vm.cmpOrder)) {
				best = ss
			}
		}
		if best == nil {
			break
		}
		if n == 0 {
			c.delay.Add(time.Since(start))
		}
		if err := sw.Tuple(best.head); err != nil {
			cancel() // client went away: abandon the fan-out
			return streamAborted, n
		}
		n++
		if req.Limit > 0 && n >= req.Limit {
			cancel() // stop the remaining worker streams; the client is satisfied
			break
		}
		best.advance(start)
	}
	if err := sw.End(); err != nil {
		return streamAborted, n
	}
	return streamComplete, n
}

// failStream delivers one shard's terminal error to the client: a real 502
// when nothing has been streamed, the in-band terminal otherwise.
func (c *Coordinator) failStream(w http.ResponseWriter, sw *httpserve.StreamWriter, ss *shardStream) streamDisposition {
	if sw.Wrote() == 0 {
		c.errorJSON(w, http.StatusBadGateway, "worker %s shard %d: %v", ss.worker, ss.shard, ss.err)
		return streamErrored
	}
	c.errors.Add(1)
	sw.Error("worker " + ss.worker + " shard " + strconv.Itoa(ss.shard) + ": " + ss.err.Error())
	return streamErrored
}

// tupleLess is the EnumOrder comparison of the merge: cmpOrder lists every
// position, the declared order first. Distinct tuples always differ at
// some position, and identical tuples hash to the same shard, so the merge
// never sees a true tie across shards.
func tupleLess(a, b relation.Tuple, cmpOrder []int) bool {
	for _, idx := range cmpOrder {
		if a[idx] != b[idx] {
			return a[idx] < b[idx]
		}
	}
	return false
}
