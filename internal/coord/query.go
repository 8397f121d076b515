package coord

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// query.go is the coordinator's data path: route or scatter, then merge.
// Queries run through the same httpserve.Front a node runs — body, binding
// parse, result cache, headers, delivery, counters — and resolve here: a
// request holds the shard-map generation it loaded (scatter), and its
// blocks come from worker streams. A bound-key request opens exactly one
// worker stream (the shard relation.ShardOf names — the partitioner's own
// hash, so routing can never disagree with placement); a free enumeration
// opens one stream per shard. Each worker link lends its frames' rows as
// they arrived, still in the binary encoding (relation.Rows), and
// core.MergeRows — the in-process sharded backend's own merge, comparing
// the values the rows decode to — lends runs of them in the view's
// EnumOrder: a routed request passes frames straight through, and a
// scatter whose shard key leads EnumOrder moves whole frames. Delivery
// copies a binary client's rows into its frames as they are and decodes
// them only into an NDJSON client's lines, so a binary relay neither
// decodes nor re-encodes a value. Hash partitioning makes the shards
// disjoint, so the merged stream is byte-identical to a single node's.
//
// The failure discipline mirrors core.IterErr: the first worker-stream
// error stops the merge immediately — merging past a dead shard would
// emit a gapped result that looks complete — and reaches the client as
// the negotiated format's terminal error (or a real 502 when nothing has
// been streamed yet). A worker that dies mid-stream shows up as binary
// truncation on the coordinator's side, never as a clean end, because the
// worker link always uses the framed binary encoding.

// resolve is the coordinator's httpserve.Resolver: the view lookup and the
// shard-map acquire. The acquired generation keys the merged-result cache,
// so a rebalance invalidates by construction.
func (c *Coordinator) resolve(name string) (httpserve.Target, uint64, error) {
	vm, ok := c.views[name]
	if !ok {
		return nil, 0, httpserve.StatusErrorf(http.StatusNotFound, "unknown view %q (GET /v1/views lists the registry)", name)
	}
	sm := c.smap.Load()
	if sm == nil || !sm.Acquire() {
		// The map is swapped strictly before the old generation retires, so
		// one reload suffices (unlike a node's view entries, a map cannot
		// retire between Load and Acquire more than transiently).
		if sm = c.smap.Load(); sm == nil || !sm.Acquire() {
			return nil, 0, httpserve.StatusErrorf(http.StatusServiceUnavailable, "coordinator is shutting down")
		}
	}
	return &scatter{c: c, vm: vm, sm: sm}, sm.gen, nil
}

// scatter is one query resolved on the coordinator: its view and the
// shard-map generation it holds for its whole stream.
type scatter struct {
	c  *Coordinator
	vm *viewMeta
	sm *shardMap
}

func (s *scatter) Name() string                        { return s.vm.info.Name }
func (s *scatter) View() *cq.View                      { return s.vm.view }
func (s *scatter) Counters() *httpserve.StreamCounters { return nil }
func (s *scatter) Release()                            { s.sm.Release() }

// Open routes a bound key to the shard that owns it, or scatters a free
// enumeration to every shard, and opens one worker stream per shard. The
// source is the streams' rows merged in the view's EnumOrder; cleanup
// closes the streams.
func (s *scatter) Open(ctx context.Context, vb relation.Tuple, req httpserve.QueryRequest) (httpserve.Source, func(), error) {
	vm := s.vm
	shards := make([]int, 0, vm.info.Shards)
	if vm.keyIdx >= 0 {
		shards = append(shards, relation.ShardOf(vb[vm.keyIdx], vm.info.Shards))
	} else {
		for i := 0; i < vm.info.Shards; i++ {
			shards = append(shards, i)
		}
	}
	owners := s.sm.owners[vm.info.Name]
	for _, sh := range shards {
		if owners[sh] == "" {
			return httpserve.Source{}, nil, httpserve.StatusErrorf(http.StatusServiceUnavailable, "shard %s has no worker yet", scopedName(vm.info.Name, sh))
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	start := time.Now()
	cursors := make([]*workerCursor, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wc := &workerCursor{worker: owners[sh], shard: sh, ws: s.c.statsFor(owners[sh]), start: start}
		cursors[i] = wc
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc.ws.requests.Add(1)
			st, err := s.c.workerClient(wc.worker).Open(ctx, scopedName(vm.info.Name, wc.shard), httpserve.QueryOptions{
				Bindings: req.Bindings,
				Limit:    req.Limit, // a merged prefix of L draws only from per-shard prefixes of L
				Format:   httpserve.FormatBinary,
			})
			if err != nil {
				wc.fail(err)
				return
			}
			// The link asks for the binary framing, whose stream lends
			// its rows; an answer in another encoding is the worker's
			// fault.
			rows, ok := st.(core.RowIterator)
			if !ok {
				st.Close()
				wc.fail(fmt.Errorf("answered without the binary framing"))
				return
			}
			wc.st, wc.rows = st, rows
		}()
	}
	wg.Wait()
	cleanup := func() {
		for _, wc := range cursors {
			if wc.st != nil {
				wc.st.Close()
			}
		}
		cancel()
	}
	its := make([]core.RowIterator, len(cursors))
	for i, wc := range cursors {
		if wc.st == nil {
			cleanup()
			return httpserve.Source{}, nil, wc.err
		}
		its[i] = wc
	}
	return httpserve.Source{Rows: core.MergeRows(vm.info.EnumOrder, its)}, cleanup, nil
}

// workerCursor is one worker stream as a merge input: its rows, the
// per-worker first-tuple delay and error count recorded as they happen,
// and a terminal error that names the worker and shard.
type workerCursor struct {
	rows   core.RowIterator
	st     httpserve.Stream
	ws     *workerStats
	start  time.Time
	err    error
	worker string
	shard  int
	seen   bool
}

func (wc *workerCursor) NextRows(max int) relation.Rows {
	rows := wc.rows.NextRows(max)
	switch {
	case rows.N > 0 && !wc.seen:
		wc.seen = true
		wc.ws.delay.Add(time.Since(wc.start))
	case rows.N == 0 && wc.err == nil:
		// nil = complete; anything else is a worker error or a mid-stream
		// death, which the binary framing shows as truncation.
		if err := core.IterErr(wc.rows); err != nil {
			wc.fail(err)
		}
	}
	return rows
}

func (wc *workerCursor) Ready() bool { return core.Ready(wc.rows) }
func (wc *workerCursor) Err() error  { return wc.err }

func (wc *workerCursor) fail(err error) {
	wc.ws.errors.Add(1)
	wc.err = fmt.Errorf("worker %s shard %d: %w", wc.worker, wc.shard, err)
}
