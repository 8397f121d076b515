package coord

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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// coord_test.go drives a real coordinator plus in-process workers over
// httptest servers and holds the distributed tier to the single-node
// standard: raw response bodies — not just decoded tuples — must be
// byte-identical to a cqserve instance serving the same sharded snapshot,
// in both encodings, across routing, scatter-merge, limits, rebalance,
// and worker death.

// buildSnapshot compiles a view and writes its snapshot, returning the path.
func buildSnapshot(t *testing.T, dir, name string, view *cq.View, db *relation.Database, opts ...core.Option) string {
	t.Helper()
	rep, err := core.Build(view, db, opts...)
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	path := filepath.Join(dir, name+".snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// cluster is one coordinator and its workers, all in-process.
type cluster struct {
	coord    *Coordinator
	coordTS  *httptest.Server
	workers  []*httpserve.Handler
	workerTS []*httptest.Server
}

// startCluster brings up a coordinator over the snapshot paths and joins
// nWorkers empty admin-mode workers through the real /v1/join endpoint.
func startCluster(t *testing.T, paths []string, nWorkers, flushBatch int) *cluster {
	t.Helper()
	return startClusterCached(t, paths, nWorkers, flushBatch, 0)
}

// startClusterCached is startCluster with a merged-result cache budget on
// the coordinator (0 = caching off).
func startClusterCached(t *testing.T, paths []string, nWorkers, flushBatch int, cacheBytes int64) *cluster {
	t.Helper()
	cl := &cluster{}
	// The coordinator needs its own public URL (workers fetch shard files
	// from it) before New, and the URL needs a handler: indirect through a
	// pointer the server's closure loads.
	var cptr atomic.Pointer[Coordinator]
	cl.coordTS = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := cptr.Load()
		if c == nil {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		c.ServeHTTP(w, r)
	}))
	c, err := New(paths, Options{SelfURL: cl.coordTS.URL, SpoolDir: t.TempDir(), FlushBatch: flushBatch, CacheBytes: cacheBytes})
	if err != nil {
		cl.coordTS.Close()
		t.Fatalf("coord.New: %v", err)
	}
	cptr.Store(c)
	cl.coord = c
	for i := 0; i < nWorkers; i++ {
		wh, err := httpserve.NewSpecs(nil, httpserve.Options{Admin: true, SpoolDir: t.TempDir(), FlushBatch: flushBatch})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		wts := httptest.NewServer(wh)
		cl.workers = append(cl.workers, wh)
		cl.workerTS = append(cl.workerTS, wts)
		body, _ := json.Marshal(map[string]string{"url": wts.URL})
		resp, err := http.Post(cl.coordTS.URL+"/v1/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("joining worker %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("joining worker %d: %s: %s", i, resp.Status, b)
		}
		resp.Body.Close()
	}
	t.Cleanup(func() {
		cl.coordTS.Close()
		cl.coord.Close()
		for i := range cl.workers {
			cl.workerTS[i].Close()
			cl.workers[i].Close()
		}
	})
	return cl
}

// rawQuery POSTs one query and returns status plus the raw body bytes.
func rawQuery(t *testing.T, base, view, body string, format httpserve.Format) (int, []byte) {
	t.Helper()
	resp, b := rawResponse(t, base, view, body, format)
	return resp.StatusCode, b
}

// rawResponse POSTs one query and returns the response (body closed) and
// its raw body bytes.
func rawResponse(t *testing.T, base, view, body string, format httpserve.Format) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query/"+view, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", format.MediaType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestDistributedByteIdentity is the tentpole property on concrete views:
// every response from the coordinator — routed bound-key requests,
// scattered merged enumerations, limits, misses, malformed requests —
// equals the single-node response byte for byte, with the same status and
// the same Content-Type, X-Cqrep-View and X-Cqrep-Free headers, in both
// encodings, and keeps doing so after a shard moves between workers.
func TestDistributedByteIdentity(t *testing.T) {
	dir := t.TempDir()
	const flushBatch = 3 // tiny batches force frame boundaries inside results
	triDB := workload.TriangleDB(7, 40, 420)
	pathDB := workload.PathDB(11, 2, 300, 20)
	paths := []string{
		buildSnapshot(t, dir, "v", cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), triDB,
			core.WithStrategy(core.MaterializedStrategy), core.WithShards(3)),
		buildSnapshot(t, dir, "p", cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"), pathDB,
			core.WithStrategy(core.DecompositionStrategy), core.WithShards(4)),
	}
	single, err := httpserve.New(paths, httpserve.Options{FlushBatch: flushBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	singleTS := httptest.NewServer(single)
	defer singleTS.Close()

	cl := startCluster(t, paths, 3, flushBatch)

	type request struct {
		view   string
		body   string
		status int // the single node's answer
	}
	requests := []request{
		{"P", `{}`, http.StatusOK},           // full scatter-merge
		{"P", `{"limit": 7}`, http.StatusOK}, // merged prefix
		{"V", `{"bindings":{"x":1,"z":2}}`, http.StatusOK},
		{"V", `{"bindings":{"x":3,"z":3}}`, http.StatusOK},
		{"V", `{"bindings":{"x":1099511627776,"z":1}}`, http.StatusOK}, // guaranteed miss
		{"V", `{"bindings":{"x":2,"z":5},"limit":1}`, http.StatusOK},
		// Error rows: the body is parsed before the view is resolved.
		{"Nope", `{not json`, http.StatusBadRequest},
		{"V", `{not json`, http.StatusBadRequest},
		{"V", `{"bindings": {"nope": 1}}`, http.StatusBadRequest},
		{"V", `{"bindings": {"x": 1}}`, http.StatusBadRequest},
		{"V", `{"bindings": {"x": 1.5, "z": 2}}`, http.StatusBadRequest},
		{"V", `{"bindings":{"x":1,"z":2}` + strings.Repeat(" ", 1<<20) + `}`, http.StatusRequestEntityTooLarge},
		{"Nope", `{}`, http.StatusNotFound},
	}
	// Cover more key values so all three workers see routed traffic.
	for x := 0; x < 12; x++ {
		requests = append(requests, request{"V", fmt.Sprintf(`{"bindings":{"x":%d,"z":%d}}`, x, (x+1)%7), http.StatusOK})
	}
	verify := func(stage string) {
		t.Helper()
		for _, rq := range requests {
			name := rq.body
			if len(name) > 40 {
				name = name[:40] + "..."
			}
			for _, format := range []httpserve.Format{httpserve.FormatNDJSON, httpserve.FormatBinary} {
				wantResp, want := rawResponse(t, singleTS.URL, rq.view, rq.body, format)
				gotResp, got := rawResponse(t, cl.coordTS.URL, rq.view, rq.body, format)
				if wantResp.StatusCode != rq.status {
					t.Fatalf("%s: %s %s (%s): single node answered %d, want %d", stage, rq.view, name, format, wantResp.StatusCode, rq.status)
				}
				if gotResp.StatusCode != wantResp.StatusCode {
					t.Fatalf("%s: %s %s (%s): status %d != single-node %d", stage, rq.view, name, format, gotResp.StatusCode, wantResp.StatusCode)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s: %s %s (%s): body diverges from single node\nwant %q\ngot  %q", stage, rq.view, name, format, want, got)
				}
				for _, h := range []string{"Content-Type", "X-Cqrep-View", "X-Cqrep-Free"} {
					if g, w := gotResp.Header.Get(h), wantResp.Header.Get(h); g != w {
						t.Fatalf("%s: %s %s (%s): %s %q != single-node %q", stage, rq.view, name, format, h, g, w)
					}
				}
			}
		}
	}
	verify("initial")

	// Rebalance: move V's shard 0 and P's shard 2 onto different workers
	// and require the exact same bytes again.
	ctx := context.Background()
	if err := cl.coord.Move(ctx, "V", 0, cl.workerTS[2].URL); err != nil {
		t.Fatalf("move V/0: %v", err)
	}
	if err := cl.coord.Move(ctx, "P", 2, cl.workerTS[0].URL); err != nil {
		t.Fatalf("move P/2: %v", err)
	}
	verify("after move")

	// The per-worker breakdown must show traffic on every worker.
	resp, err := http.Get(cl.coordTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Requests        uint64         `json:"requests"`
		StreamsComplete uint64         `json:"streams_complete"`
		Workers         []WorkerReport `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Workers) != 3 {
		t.Fatalf("stats reports %d workers, want 3", len(stats.Workers))
	}
	for _, wr := range stats.Workers {
		if wr.Requests == 0 {
			t.Fatalf("worker %s saw no requests; routing did not spread", wr.URL)
		}
	}
	if stats.StreamsComplete == 0 {
		t.Fatalf("no complete streams recorded")
	}
}

// TestStatsBlockBothTiers decodes both tiers' /v1/stats into the shared
// httpserve.FrontStats block and checks its key names literally, since
// cqload and the repository benchmark parse them by name.
func TestStatsBlockBothTiers(t *testing.T) {
	dir := t.TempDir()
	paths := []string{buildSnapshot(t, dir, "v", cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
		workload.TriangleDB(5, 30, 300), core.WithStrategy(core.MaterializedStrategy), core.WithShards(2))}
	const cacheBytes = 1 << 20
	node, err := httpserve.New(paths, httpserve.Options{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	nodeTS := httptest.NewServer(node)
	defer nodeTS.Close()
	cl := startClusterCached(t, paths, 2, 0, cacheBytes)

	keys := []string{"uptime_ms", "generation", "requests", "errors", "tuples", "streams_complete",
		"streams_errored", "streams_aborted", "first_tuple", "total", "cache"}
	for tier, base := range map[string]string{"node": nodeTS.URL, "coordinator": cl.coordTS.URL} {
		for x := 0; x < 4; x++ {
			rawQuery(t, base, "V", fmt.Sprintf(`{"bindings":{"x":%d,"z":%d}}`, x, x+1), httpserve.FormatNDJSON)
		}
		rawQuery(t, base, "V", `{"bindings":{"x":1}}`, httpserve.FormatNDJSON) // a 400
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		for _, k := range keys {
			if _, ok := raw[k]; !ok {
				t.Errorf("%s: /v1/stats has no %q key: %s", tier, k, body)
			}
		}
		var st httpserve.FrontStats
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if st.Requests != 5 || st.Errors != 1 || st.StreamsComplete != 4 || st.Total.Count != 4 || st.Generation == 0 || st.Cache == nil {
			t.Errorf("%s: stats block %+v, want 5 requests, 1 error, 4 complete streams, a generation and a cache block", tier, st)
		}
	}
}

// TestReadinessLifecycle: a coordinator with unassigned shards must refuse
// readiness (it would 503 routed queries), and flip ready once workers
// cover the map. Workers gate the same way through ReadyGate.
func TestReadinessLifecycle(t *testing.T) {
	dir := t.TempDir()
	paths := []string{buildSnapshot(t, dir, "v", cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
		workload.TriangleDB(5, 30, 300), core.WithStrategy(core.MaterializedStrategy), core.WithShards(2))}

	var cptr atomic.Pointer[Coordinator]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := cptr.Load(); c != nil {
			c.ServeHTTP(w, r)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := New(paths, Options{SelfURL: ts.URL, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cptr.Store(c)

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no workers = %d, want 503", got)
	}
	// Queries against unassigned shards 503 rather than hanging or lying.
	if got, _ := rawQuery(t, ts.URL, "V", `{"bindings":{"x":1,"z":2}}`, httpserve.FormatNDJSON); got != http.StatusServiceUnavailable {
		t.Fatalf("query with no workers = %d, want 503", got)
	}

	wh, err := httpserve.NewSpecs(nil, httpserve.Options{Admin: true, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	wts := httptest.NewServer(wh)
	defer wts.Close()
	if err := c.Join(context.Background(), wts.URL); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz with full coverage = %d, want 200", got)
	}
}

// TestWorkerDeathMidStream kills a worker while a scattered enumeration is
// in flight: the client must receive the terminal error of its encoding —
// never a truncated stream that parses as complete.
func TestWorkerDeathMidStream(t *testing.T) {
	dir := t.TempDir()
	// A big free enumeration so the stream is still flowing when the worker
	// dies: the ~1M-tuple result is far beyond anything socket buffers can
	// swallow, so the kill always lands mid-stream.
	pathDB := workload.PathDB(13, 2, 8000, 60)
	paths := []string{buildSnapshot(t, dir, "p", cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"), pathDB,
		core.WithStrategy(core.DecompositionStrategy), core.WithShards(3))}
	cl := startCluster(t, paths, 3, 4)

	for _, format := range []httpserve.Format{httpserve.FormatNDJSON, httpserve.FormatBinary} {
		client := &httpserve.Client{Base: cl.coordTS.URL}
		st, err := client.Open(context.Background(), "P", httpserve.QueryOptions{Format: format})
		if err != nil {
			t.Fatalf("%s: open: %v", format, err)
		}
		n := 0
		killed := false
		for {
			_, ok := st.Next()
			if !ok {
				break
			}
			n++
			if n == 5 && !killed {
				killed = true
				// Sever every connection into worker 1 — the mid-stream death.
				cl.workerTS[1].CloseClientConnections()
			}
		}
		err = st.Err()
		st.Close()
		if err == nil {
			t.Fatalf("%s: stream ended cleanly after worker death (%d tuples); silent truncation", format, n)
		}
		t.Logf("%s: %d tuples then terminal error: %v", format, n, err)
	}
}

// TestChurnUnderLoad is the race-mode churn gate: queries run concurrently
// with shard moves bouncing a shard between workers, and every stream must
// end either complete (byte-identical tuple count to the in-process
// answer) or in a clean terminal error — never a silent prefix.
func TestChurnUnderLoad(t *testing.T) {
	dir := t.TempDir()
	pathDB := workload.PathDB(17, 2, 800, 30)
	view := cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)")
	rep, err := core.Build(view, pathDB, core.WithStrategy(core.DecompositionStrategy), core.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	want := len(core.Drain(rep.Query(nil)))
	path := filepath.Join(dir, "p.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cl := startCluster(t, []string{path}, 2, 8)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		target := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.coord.Move(context.Background(), "P", 1, cl.workerTS[target%2].URL); err != nil {
				// ErrClosed at teardown is the only acceptable failure.
				select {
				case <-stop:
					return
				default:
					t.Errorf("move: %v", err)
					return
				}
			}
			target++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &httpserve.Client{Base: cl.coordTS.URL}
			format := httpserve.FormatBinary
			if g%2 == 0 {
				format = httpserve.FormatNDJSON
			}
			for i := 0; i < 25; i++ {
				res, err := client.QueryOpts(context.Background(), "P", httpserve.QueryOptions{Format: format})
				if err != nil {
					// A clean terminal error is an acceptable outcome under
					// churn; a nil error with missing tuples is not.
					continue
				}
				if len(res.Tuples) != want {
					t.Errorf("goroutine %d: stream reported complete with %d/%d tuples — silent truncation", g, len(res.Tuples), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

// TestChurnUnderLoadCached is the churn gate with the coordinator's
// merged-result cache on: every response — live merge, cached replay, or
// coalesced wait — must still be one complete enumeration or a clean
// terminal error while moves bump the shard-map generation underneath.
func TestChurnUnderLoadCached(t *testing.T) {
	dir := t.TempDir()
	pathDB := workload.PathDB(17, 2, 800, 30)
	view := cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)")
	rep, err := core.Build(view, pathDB, core.WithStrategy(core.DecompositionStrategy), core.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	want := len(core.Drain(rep.Query(nil)))
	path := filepath.Join(dir, "p.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cl := startClusterCached(t, []string{path}, 2, 8, 1<<22)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		target := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.coord.Move(context.Background(), "P", 1, cl.workerTS[target%2].URL); err != nil {
				select {
				case <-stop:
					return
				default:
					t.Errorf("move: %v", err)
					return
				}
			}
			target++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &httpserve.Client{Base: cl.coordTS.URL}
			format := httpserve.FormatBinary
			if g%2 == 0 {
				format = httpserve.FormatNDJSON
			}
			for i := 0; i < 25; i++ {
				res, err := client.QueryOpts(context.Background(), "P", httpserve.QueryOptions{Format: format})
				if err != nil {
					continue
				}
				if len(res.Tuples) != want {
					t.Errorf("goroutine %d: stream reported complete with %d/%d tuples — silent truncation", g, len(res.Tuples), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	st, on := cl.coord.CacheStats()
	if !on {
		t.Fatal("coordinator cache reported off despite CacheBytes")
	}
	if st.Hits+st.Misses+st.Coalesced == 0 {
		t.Fatal("no request took the cached path")
	}
	t.Logf("cached churn: cache %d hits / %d misses / %d coalesced / %d invalidated",
		st.Hits, st.Misses, st.Coalesced, st.Invalidated)
}

// TestDetachSkipsShardGivenBack pins the stale-detach fence. A move's
// detach waits for the generation it retired to drain, and by then a later
// move may have handed the shard back to the worker it came from.
// Generation g is held open the way an in-flight stream holds it, shard S
// moves A→B and back B→A, and g is released: the delayed detach must leave
// A serving S, so the next routed query on S still succeeds.
func TestDetachSkipsShardGivenBack(t *testing.T) {
	paths := []string{buildSnapshot(t, t.TempDir(), "e", cq.MustParse("E[bf](x, y) :- R(x, y)"), workload.TriangleDB(5, 30, 300),
		core.WithStrategy(core.MaterializedStrategy), core.WithShards(2))}
	cl := startCluster(t, paths, 2, 0)
	c, ctx := cl.coord, context.Background()

	// A key of shard 0 with answers, so the bodies compared below carry data.
	var query string
	var want []byte
	for x := 0; len(want) <= len("CQB1\x01\x00"); x++ {
		if relation.ShardOf(relation.Value(x), 2) == 0 {
			query = fmt.Sprintf(`{"bindings":{"x":%d}}`, x)
			_, want = rawQuery(t, cl.coordTS.URL, "E", query, httpserve.FormatBinary)
		}
	}
	a := c.smap.Load().owners["E"][0]
	b := cl.workerTS[0].URL
	if a == b {
		b = cl.workerTS[1].URL
	}

	held := c.smap.Load()
	if !held.Acquire() {
		t.Fatal("could not hold the live generation")
	}
	if err := c.Move(ctx, "E", 0, b); err != nil {
		t.Fatalf("move A→B: %v", err)
	}
	if err := c.Move(ctx, "E", 0, a); err != nil {
		t.Fatalf("move B→A: %v", err)
	}
	held.Release()
	c.retired.Wait() // every delayed detach has run

	status, got := rawQuery(t, cl.coordTS.URL, "E", query, httpserve.FormatBinary)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("routed query after A→B→A: status %d, body %q; want 200 and %q", status, got, want)
	}
}

// discardResponse is an http.ResponseWriter that keeps nothing, so the
// allocation pin measures the relay rather than a recorder's buffer.
type discardResponse struct {
	header http.Header
	status int
	bytes  int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(s int)   { d.status = s }
func (d *discardResponse) Flush()              {}
func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.bytes += len(p)
	return len(p), nil
}

// TestRoutedRelayAllocsPerTuple pins the coordinator's relay the way the
// node's serving pins pin the node: one routed 8192-answer request, whose
// worker frames decode into the link's reused slab and pass the merge
// straight through into reused encode buffers, allocates per request, not
// per tuple. AllocsPerRun counts every goroutine, so the worker's handler
// and both HTTP hops are inside the budget.
func TestRoutedRelayAllocsPerTuple(t *testing.T) {
	const answers = 8192
	db := relation.NewDatabase()
	s := relation.NewRelation("S", 2)
	for y := 0; y < answers; y++ {
		s.MustInsert(1, relation.Value(3*y))
	}
	db.Add(s)
	paths := []string{buildSnapshot(t, t.TempDir(), "w", cq.MustParse("W[bf](x, y) :- S(x, y)"), db,
		core.WithStrategy(core.MaterializedStrategy), core.WithShards(3))}
	cl := startCluster(t, paths, 3, 0)

	body := []byte(`{"bindings":{"x":1}}`)
	w := &discardResponse{header: make(http.Header)}
	allocs := testing.AllocsPerRun(20, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/W", bytes.NewReader(body))
		req.Header.Set("Accept", httpserve.BinaryMediaType)
		w.status, w.bytes = 0, 0
		cl.coord.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.bytes < answers*8 {
			t.Fatalf("status %d after %d bytes", w.status, w.bytes)
		}
	})
	if perTuple := allocs / answers; perTuple >= 0.05 {
		t.Fatalf("relaying %d answers allocated %.0f times: %.3f allocs/tuple, want < 0.05", answers, allocs, perTuple)
	}
	t.Logf("routed relay: %.0f allocations per %d-answer request", allocs, answers)
}
