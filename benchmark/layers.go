package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cqrep"
	"cqrep/internal/core"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
	"cqrep/internal/wal"
)

// The traced pass prices every layer on the workload's own fixture, from
// outside: each probe times calls into one layer's public functions on the
// same requests, and a layer's own cost is its probe minus the probes of
// the layers beneath it (README.md has the tree). One client, no
// concurrency, so the numbers add up instead of overlapping.
//
// The window is shared out in twentieths: enough per probe that its mean is
// steady, little enough that the pass, with the tiers it has to set up,
// takes no longer than an end-to-end run.
type layerPass struct {
	cfg  config
	fx   *fixture
	dir  string
	tr   *tracer
	unit time.Duration
	m    map[string]measure
	// attempted counts every request and update the pass issued; any one of
	// them failing fails the pass.
	attempted int

	path   string               // the fixture's view, compiled and saved
	rep    *core.Representation // that snapshot loaded back, as a server holds it
	calls  []call
	bodies [][]byte // request bodies of calls, as a client marshals them

	queryNsPerTuple, serverNsPerTuple, encodeNsPerTuple float64
	handlerNsPerTuple, loopbackNsPerTuple               float64
}

// churnUnits is the read-beside-write window's share of the pass, in units:
// the largest, because three of its numbers are percentiles of flushes that
// take tens of milliseconds each.
const churnUnits = 5

// serverFlushBatch is httpserve's default hand-off batch; a node's
// core.Server is configured with it, so the probe's is too.
const serverFlushBatch = 128

func runTraced(cfg config, def workloadDef, dir string, res *result) error {
	fx := def.generate(cfg.seed, cfg.smoke)
	p := &layerPass{cfg: cfg, fx: fx, dir: dir, tr: newTracer(), unit: cfg.window / 20, m: map[string]measure{}}
	p.set("workload.gen_s", fx.genSeconds)
	for _, step := range []func() error{p.compile, p.coreLayer, p.encodeLayer, p.handlerLayer, p.coordLayer, p.walLayer, p.maintainLayer} {
		if err := step(); err != nil {
			return err
		}
	}
	res.Built = describe(fx, p.rep.Stats(), wants(p.calls))
	res.Metrics, res.Attempted = p.m, p.attempted
	if err := os.MkdirAll(cfg.outDir, 0o777); err != nil {
		return err
	}
	return p.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload, cfg.seed)
}

func (p *layerPass) set(name string, v float64) { p.m[name] = exact(v) }

// compile times the steps of set-up one by one.
func (p *layerPass) compile() error {
	p.path = filepath.Join(p.dir, "view.cqs")
	t0 := time.Now()
	built, err := core.Build(p.fx.parsedView(), p.fx.db, p.fx.coreOpts()...)
	if err != nil {
		return err
	}
	p.set("core.build_s", time.Since(t0).Seconds())
	t0 = time.Now()
	if _, err := saveSnapshot(built, p.path); err != nil {
		return err
	}
	p.set("core.snapshot_write_s", time.Since(t0).Seconds())
	st := built.Stats()
	p.set("core.entries", float64(st.Entries))
	p.set("core.bytes", float64(st.Bytes))

	t0 = time.Now()
	if p.rep, err = loadSnapshot(p.path); err != nil {
		return err
	}
	p.set("core.snapshot_load_s", time.Since(t0).Seconds())
	var opens []float64
	for i := 0; i < 9; i++ {
		t0 = time.Now()
		if _, err := core.OpenRepresentationMmap(p.path); err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
	}
	p.set("core.mmap_open_ms", median(opens))

	if p.calls, err = nodeCalls(p.fx, p.rep); err != nil {
		return err
	}
	p.bodies = make([][]byte, len(p.calls))
	for i, c := range p.calls {
		if p.bodies[i], err = json.Marshal(map[string]any{"bindings": c.opts.Bindings}); err != nil {
			return err
		}
	}
	return nil
}

// A tally is what one probe loop adds up.
type tally struct {
	ns, tuples, reqs, mallocs float64
	first                     hist
}

// probe calls one(i) on request after request, round the first cycle
// requests, for about budget, and adds up time, tuples and heap
// allocations. one returns the tuples the request produced and the delay
// to its first.
func (p *layerPass) probe(name string, budget time.Duration, cycle int, one func(i int) (tuples int, first time.Duration, err error)) (tally, error) {
	var t tally
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for i := 0; ; i++ {
		k := i % cycle
		t0 := time.Now()
		if t0.Sub(begin) >= budget && i > 0 {
			break
		}
		n, first, err := one(k)
		t1 := time.Now()
		p.attempted++
		if err != nil {
			return t, fmt.Errorf("%s probe, request %d: %w", name, k, err)
		}
		if n != p.calls[k].want {
			return t, fmt.Errorf("%s probe, request %d: %d tuples, in-process enumeration gives %d", name, k, n, p.calls[k].want)
		}
		p.tr.record(name, "", int64(k), t0, t1)
		t.ns += float64(t1.Sub(t0))
		t.tuples += float64(n)
		t.reqs++
		if n > 0 {
			t.first.add(first)
		}
	}
	runtime.ReadMemStats(&after)
	t.mallocs = float64(after.Mallocs - before.Mallocs)
	if t.tuples == 0 {
		return t, fmt.Errorf("%s probe produced no tuples", name)
	}
	return t, nil
}

func drainIter(it core.Iterator, t0 time.Time) (n int, first time.Duration, err error) {
	first, n = drain(it, t0)
	return n, first, core.IterErr(it)
}

// coreLayer drains Representation.Query, then the same requests through a
// core.Server; the difference is the hand-off (queue, worker, channel).
func (p *layerPass) coreLayer() error {
	q, err := p.probe("core.query", p.unit, len(p.calls), func(i int) (int, time.Duration, error) {
		return drainIter(p.rep.Query(p.fx.reqs[i]), time.Now())
	})
	if err != nil {
		return err
	}
	p.queryNsPerTuple = q.ns / q.tuples
	p.set("core.query_ns_per_tuple", p.queryNsPerTuple)
	p.set("core.query_ns_per_req", q.ns/q.reqs)
	p.set("core.query_first_ns", q.first.quantile(0.5))
	p.set("core.query_allocs_per_tuple", q.mallocs/q.tuples)

	srv, err := core.NewServer(p.rep, 0, core.WithFlushBatch(serverFlushBatch))
	if err != nil {
		return err
	}
	defer srv.Close()
	s, err := p.probe("core.server", p.unit, len(p.calls), func(i int) (int, time.Duration, error) {
		t0 := time.Now()
		it, err := srv.SubmitContext(context.Background(), p.fx.reqs[i])
		if err != nil {
			return 0, 0, err
		}
		return drainIter(it, t0)
	})
	if err != nil {
		return err
	}
	p.serverNsPerTuple = s.ns / s.tuples
	p.set("core.server_ns_per_tuple", p.serverNsPerTuple)
	p.set("core.server_allocs_per_tuple", s.mallocs/s.tuples)
	p.set("core.handoff_ns_per_tuple", p.serverNsPerTuple-p.queryNsPerTuple)
	return nil
}

// discard is an http.ResponseWriter that keeps nothing.
type discard struct {
	header http.Header
	status int
}

func newDiscard() *discard                     { return &discard{header: http.Header{}, status: http.StatusOK} }
func (d *discard) Header() http.Header         { return d.header }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Flush()                      {}

// encodeLayer runs the stream encoder alone, over answers enumerated
// beforehand, in both encodings, and times ParseBindings on the bodies.
func (p *layerPass) encodeLayer() error {
	// Enumerating ahead of time costs memory; a million tuples' worth of
	// requests from the head of the cycle is sample enough.
	var answers [][]relation.Tuple
	for i, total := 0, 0; i < len(p.calls) && total < 1<<20; i++ {
		ts := core.Drain(p.rep.Query(p.fx.reqs[i]))
		answers = append(answers, ts)
		total += len(ts)
	}
	arity := len(p.rep.FreeNames())
	for _, format := range []httpserve.Format{httpserve.FormatBinary, httpserve.FormatNDJSON} {
		t, err := p.probe("httpserve.encode_"+format.String(), p.unit/2, len(answers), func(i int) (int, time.Duration, error) {
			sw := httpserve.NewStreamWriter(newDiscard(), format, arity, 0)
			for _, tu := range answers[i] {
				if err := sw.Tuple(tu); err != nil {
					return 0, 0, err
				}
			}
			return len(answers[i]), 0, sw.End()
		})
		if err != nil {
			return err
		}
		p.set("httpserve.encode_"+format.String()+"_ns_per_tuple", t.ns/t.tuples)
		if format == p.fx.format {
			p.encodeNsPerTuple = t.ns / t.tuples
			p.set("httpserve.encode_allocs_per_tuple", t.mallocs/t.tuples)
		}
	}

	begin := time.Now()
	n := 0
	for ; time.Since(begin) < p.unit/4 || n == 0; n++ {
		if _, err := httpserve.ParseBindings(p.bodies[n%len(p.bodies)]); err != nil {
			return err
		}
	}
	p.set("httpserve.parse_bindings_ns", float64(time.Since(begin))/float64(n))
	return nil
}

// handlerLayer calls Handler.ServeHTTP in memory (no TCP), then drives the
// same handler over loopback with one client, untraced and traced, and
// last replays pre-encoded bodies from a trivial handler to find what the
// client and the transport can carry at most.
func (p *layerPass) handlerLayer() error {
	h, err := httpserve.New([]string{p.path}, nodeOptions())
	if err != nil {
		return err
	}
	defer h.Close()
	view := p.calls[0].view
	accept := p.fx.format.MediaType()
	t, err := p.probe("httpserve.handler", p.unit, len(p.calls), func(i int) (int, time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/"+view, bytes.NewReader(p.bodies[i]))
		req.Header.Set("Accept", accept)
		w := newDiscard()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return 0, 0, fmt.Errorf("status %d", w.status)
		}
		return p.calls[i].want, 0, nil // a discarded stream cannot be counted; the loopback windows below count
	})
	if err != nil {
		return err
	}
	p.handlerNsPerTuple = t.ns / t.tuples
	p.set("httpserve.handler_ns_per_tuple", p.handlerNsPerTuple)
	p.set("httpserve.handler_ns_per_req", t.ns/t.reqs)
	p.set("httpserve.handler_allocs_per_tuple", t.mallocs/t.tuples)
	p.set("httpserve.handler_self_ns_per_tuple", p.handlerNsPerTuple-p.serverNsPerTuple-p.encodeNsPerTuple)

	plain := httptest.NewServer(h)
	defer plain.Close()
	traced := httptest.NewServer(p.tr.handler("httpserve.handler@wire", "client.request", h))
	defer traced.Close()
	before, err := fetchStreamCounts(plain.URL)
	if err != nil {
		return err
	}
	// Untraced and traced windows alternate, each starting the cycle at the
	// same request, so the two rates see the same requests and the same
	// stretch of machine weather; the overhead is their small difference.
	const rounds = 3
	var untracedRate, tracedRate float64
	for i := 0; i < rounds; i++ {
		u, err := p.window(plain.URL, p.calls, 1, p.unit/2, nil)
		if err != nil {
			return err
		}
		t, err := p.window(traced.URL, p.calls, 1, p.unit/2, p.tr)
		if err != nil {
			return err
		}
		untracedRate += u / rounds
		tracedRate += t / rounds
	}
	after, err := fetchStreamCounts(plain.URL)
	if err != nil {
		return err
	}
	p.loopbackNsPerTuple = 1e9 / untracedRate
	p.set("httpserve.loopback_ns_per_tuple", p.loopbackNsPerTuple)
	p.set("httpserve.transport_ns_per_tuple", p.loopbackNsPerTuple-p.handlerNsPerTuple)
	p.set("trace.overhead_frac", (untracedRate-tracedRate)/untracedRate)
	p.set("httpserve.streams_complete", float64(after.Complete-before.Complete))
	p.set("httpserve.streams_errored", float64(after.Errored-before.Errored))
	p.set("httpserve.streams_aborted", float64(after.Aborted-before.Aborted))

	// The floor replays at most the head of the cycle: fetching thirty
	// thousand bodies first would take longer than the probe.
	floorCalls := p.calls[:min(len(p.calls), 4096)]
	replay := map[string][]byte{}
	var contentType string
	for i, c := range floorCalls {
		if replay[string(p.bodies[i])], contentType, err = rawBody(plain.URL, c, p.bodies[i]); err != nil {
			return err
		}
	}
	floor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", contentType)
		w.Write(replay[string(body)])
	}))
	defer floor.Close()
	floorRate, err := p.window(floor.URL, floorCalls, p.cfg.clients, p.unit, nil)
	if err != nil {
		return err
	}
	p.set("httpserve.client_floor_tuples_per_s", floorRate)
	return nil
}

// window runs one closed-loop window and returns tuples per second over
// the whole of it.
func (p *layerPass) window(base string, calls []call, clients int, d time.Duration, tr *tracer) (float64, error) {
	rec := runClients(base, calls, clients, d, tr)
	p.attempted += rec.attempted
	if rec.firstErr != nil {
		return 0, fmt.Errorf("%d of %d requests failed, first: %w", rec.failed, rec.attempted, rec.firstErr)
	}
	rate := rate(rec.tuples, d).Whole
	if rate == 0 {
		return 0, fmt.Errorf("no request against %s finished inside %v", base, d)
	}
	return rate, nil
}

// coordLayer shards the fixture three ways behind a coordinator and times,
// with one client, a request routed to its one shard, the same request
// sent straight to the worker that owns it, and the all-free enumeration
// the coordinator has to merge from all three.
func (p *layerPass) coordLayer() error {
	dir := filepath.Join(p.dir, "dist")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	st, err := setupDist(dir, p.fx)
	if err != nil {
		return err
	}
	defer st.close()
	keyIdx, shards := st.built.ShardKeyIndex(), st.built.ShardCount()
	st.built = nil
	sc, err := loadSnapshot(filepath.Join(dir, "scatter.cqs"))
	if err != nil {
		return err
	}
	all, err := scatterCall(p.fx, sc)
	if err != nil {
		return err
	}
	sc = nil

	routed, err := p.window(st.url, p.calls, 1, p.unit, nil)
	if err != nil {
		return fmt.Errorf("routed: %w", err)
	}
	scatter, err := p.window(st.url, []call{all}, 1, p.unit, nil)
	if err != nil {
		return fmt.Errorf("scatter: %w", err)
	}

	// The same requests, each sent to the worker that owns its shard, under
	// the name the coordinator attached the shard as.
	owners, err := shardOwners(st.url, p.calls[0].view)
	if err != nil {
		return err
	}
	var directNs, directTuples float64
	for s := 0; s < shards; s++ {
		var mine []call
		for i, c := range p.calls {
			if relation.ShardOf(p.fx.reqs[i][keyIdx], shards) == s {
				c.view = fmt.Sprintf("%s@%d", c.view, s)
				mine = append(mine, c)
			}
		}
		if len(mine) == 0 {
			continue
		}
		d := p.unit / time.Duration(shards)
		r, err := p.window(owners[s], mine, 1, d, nil)
		if err != nil {
			return fmt.Errorf("worker-direct, shard %d: %w", s, err)
		}
		directNs += float64(d)
		directTuples += r * d.Seconds()
	}
	routedNs, scatterNs, direct := 1e9/routed, 1e9/scatter, directNs/directTuples
	p.set("coord.routed_tuples_per_s", routed)
	p.set("coord.scatter_tuples_per_s", scatter)
	p.set("coord.relay_ns_per_tuple", routedNs-direct)
	p.set("coord.merge_ns_per_tuple", scatterNs-routedNs)
	p.set("coord.dist_over_single", routedNs/p.loopbackNsPerTuple)
	return nil
}

// walLayer runs the update log alone on the churn script: append, reopen
// (which replays), and a compaction that keeps half the entries.
func (p *layerPass) walLayer() error {
	ops, err := churnScript(p.cfg.seed, p.fx, 4096)
	if err != nil {
		return err
	}
	path := filepath.Join(p.dir, "probe.wal")
	log, _, err := wal.Open(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, op := range ops {
		if err := log.Append(uint64(i+1), op.Rel, op.Tuple, op.Del); err != nil {
			return err
		}
	}
	p.set("wal.append_ns", float64(time.Since(t0))/float64(len(ops)))
	if err := log.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.set("wal.bytes_per_update", float64(fi.Size())/float64(len(ops)))

	t0 = time.Now()
	log, entries, err := wal.Open(path)
	if err != nil {
		return err
	}
	p.set("wal.replay_ms", float64(time.Since(t0))/1e6)
	defer log.Close()
	if len(entries) != len(ops) {
		return fmt.Errorf("wal: reopening replayed %d entries of %d appended", len(entries), len(ops))
	}
	log.SetSnapshot(func(uint64) error { return nil }) // price the log rewrite, not a snapshot save
	t0 = time.Now()
	if err := log.Compact(uint64(len(ops) / 2)); err != nil {
		return err
	}
	p.set("wal.compact_ms", float64(time.Since(t0))/1e6)
	if log.Entries() != len(ops)-len(ops)/2 {
		return fmt.Errorf("wal: compaction kept %d entries of %d", log.Entries(), len(ops))
	}
	return nil
}

// maintainLayer prices maintenance without a log — buffering an update,
// flushing a batch with delta application on and with it off — and then
// runs the read-beside-write window with the log attached.
func (p *layerPass) maintainLayer() error {
	ops, err := churnScript(p.cfg.seed, p.fx, scriptSteps(p.unit.Seconds()*churnUnits*(1+warmupShare)))
	if err != nil {
		return err
	}
	flushMs := func(opts ...cqrep.Option) (bufferNs, ms float64, err error) {
		rep, err := cqrep.Load(p.path)
		if err != nil {
			return 0, 0, err
		}
		m, err := cqrep.ResumeMaintained(rep, 1e9, p.fx.pubOpts(opts...)...)
		if err != nil {
			return 0, 0, err
		}
		var buffer hist
		var flushes []float64
		begin := time.Now()
		for i := 0; time.Since(begin) < p.unit/2 || len(flushes) == 0; i++ {
			t0 := time.Now()
			if err := applyOp(m, ops[i%len(ops)]); err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			buffer.add(t1.Sub(t0))
			if (i+1)%flushEvery == 0 {
				if err := m.Flush(); err != nil {
					return 0, 0, err
				}
				t2 := time.Now()
				p.tr.record("core.maintain.flush", "", int64(i), t1, t2)
				flushes = append(flushes, float64(t2.Sub(t1))/1e6)
			}
		}
		return buffer.mean(), median(flushes), nil
	}
	bufferNs, deltaMs, err := flushMs()
	if err != nil {
		return err
	}
	_, recompileMs, err := flushMs(cqrep.WithDeltaApply(false))
	if err != nil {
		return err
	}
	p.set("core.maintain.buffer_ns", bufferNs)
	p.set("core.maintain.flush_ms", deltaMs)
	p.set("core.maintain.recompile_ms", recompileMs)

	dir := filepath.Join(p.dir, "churn")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	cs, err := setupChurn(dir, p.fx)
	if err != nil {
		return err
	}
	window := churnUnits * p.unit
	out := runChurn(cs.m, p.fx, ops, nil, max(1, p.cfg.clients-1), window, p.cfg.seed)
	if out.firstErr != nil {
		return fmt.Errorf("update %d failed: %w", out.applied, out.firstErr)
	}
	if out.readers.firstErr != nil {
		return fmt.Errorf("%d of %d reads failed, first: %w", out.readers.failed, out.readers.attempted, out.readers.firstErr)
	}
	p.attempted += out.readers.attempted + out.applied
	for name, m := range out.writeMetrics(window) {
		p.m[name] = m
	}
	p.set("core.maintain.delta_applies", float64(cs.m.DeltaApplies()))
	p.set("core.maintain.rebuilds", float64(cs.m.Rebuilds()))
	p.set("core.maintain.noop_deletes", float64(cs.m.NoopDeletes()))
	// Compaction saves the whole snapshot after every flush; its size moves
	// little inside a window, so the mean of first and last stands for all.
	fi, err := os.Stat(cs.snapshotPath)
	if err != nil {
		return err
	}
	rewritten := float64(cs.m.Rebuilds()) * float64(cs.snapshotBytes+fi.Size()) / 2
	p.set("core.maintain.snapshot_bytes_rewritten_per_update", rewritten/float64(out.applied))
	if err := verifyChurn(cs, p.fx, p.fx.db, ops, out.applied); err != nil {
		return fmt.Errorf("correctness after the churn window: %w", err)
	}
	return nil
}
