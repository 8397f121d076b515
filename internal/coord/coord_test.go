package coord

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
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
func buildSnapshot(t testing.TB, dir, name string, view *cq.View, db *relation.Database, opts ...core.Option) string {
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
func startCluster(t testing.TB, paths []string, nWorkers, flushBatch int) *cluster {
	t.Helper()
	return startClusterCached(t, paths, nWorkers, flushBatch, 0)
}

// startClusterCached is startCluster with a merged-result cache budget on
// the coordinator (0 = caching off).
func startClusterCached(t testing.TB, paths []string, nWorkers, flushBatch int, cacheBytes int64) *cluster {
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
// encodings, and keeps doing so after a shard moves between workers. N
// merges negative values with positive ones — the relay compares encoded
// rows, whose bytes do not sort like their values — and B streams the
// arity-0 answers of an all-bound view.
func TestDistributedByteIdentity(t *testing.T) {
	dir := t.TempDir()
	const flushBatch = 3 // tiny batches force frame boundaries inside results
	triDB := workload.TriangleDB(7, 40, 420)
	pathDB := workload.PathDB(11, 2, 300, 20)
	negDB := negativeDB()
	paths := []string{
		buildSnapshot(t, dir, "v", cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), triDB,
			core.WithStrategy(core.MaterializedStrategy), core.WithShards(3)),
		buildSnapshot(t, dir, "p", cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"), pathDB,
			core.WithStrategy(core.DecompositionStrategy), core.WithShards(4)),
		buildSnapshot(t, dir, "n", cq.MustParse("N[ff](x, y) :- S(x, y)"), negDB,
			core.WithStrategy(core.MaterializedStrategy), core.WithShards(3)),
		buildSnapshot(t, dir, "b", cq.MustParse("B[bb](x, y) :- S(x, y)"), negDB, core.WithShards(3)),
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
		{"N", `{}`, http.StatusOK}, // negative values merged with positive ones
		{"N", `{"limit": 11}`, http.StatusOK},
		{"B", `{"bindings":{"x":-9223372036854775807,"y":9223372036854775806}}`, http.StatusOK}, // true: one empty tuple
		{"B", `{"bindings":{"x":-2,"y":-7}}`, http.StatusOK},                                    // true
		{"B", `{"bindings":{"x":-2,"y":3}}`, http.StatusOK},                                     // false: no tuple
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
	for body, want := range map[string]string{
		`{"bindings":{"x":-9223372036854775807,"y":9223372036854775806}}`: "[]\n",
		`{"bindings":{"x":-2,"y":-7}}`:                                    "[]\n",
		`{"bindings":{"x":-2,"y":3}}`:                                     "",
	} {
		if _, got := rawQuery(t, cl.coordTS.URL, "B", body, httpserve.FormatNDJSON); string(got) != want {
			t.Fatalf("B %s answered %q, want %q", body, got, want)
		}
	}

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

// negativeDB is S over negative and non-negative values side by side,
// the sentinels' nearest neighbours included: S(x, -x), S(x, 3x-1) for
// -20 <= x < 20, and S(⊥+1, ⊤-1), S(⊤-1, ⊥+1).
func negativeDB() *relation.Database {
	s := relation.NewRelation("S", 2)
	for x := relation.Value(-20); x < 20; x++ {
		s.MustInsert(x, -x)
		s.MustInsert(x, 3*x-1)
	}
	s.MustInsert(relation.NegInf+1, relation.PosInf-1)
	s.MustInsert(relation.PosInf-1, relation.NegInf+1)
	db := relation.NewDatabase()
	db.Add(s)
	return db
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
	// A free enumeration of 171963 tuples, about 1.4 MB of binary frames
	// per worker: loopback socket buffers can swallow that whole, so a
	// worker left alone may finish its stream before the client has read
	// five tuples. Worker 1 therefore holds each stream after its first
	// 64 KiB until the kill, which always lands mid-stream.
	pathDB := workload.PathDB(13, 2, 8000, 60)
	paths := []string{buildSnapshot(t, dir, "p", cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"), pathDB,
		core.WithStrategy(core.DecompositionStrategy), core.WithShards(3))}
	cl := startCluster(t, paths, 3, 4)
	stall := &stallingWorker{Handler: cl.workers[1], after: 64 << 10}
	cl.workerTS[1].Config.Handler = stall

	for _, format := range []httpserve.Format{httpserve.FormatNDJSON, httpserve.FormatBinary} {
		release := stall.arm()
		defer release() // a failed check must not leave the worker's handler stalled
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
				release()
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

// stallingWorker serves a worker's API, but holds every query stream once
// it has written after bytes, until the latest arm's release runs; the
// stream then fails.
type stallingWorker struct {
	http.Handler
	after   int
	mu      sync.Mutex
	release chan struct{}
}

// arm makes the streams stalled from now on wait for the returned
// release, which may run more than once.
func (s *stallingWorker) arm() (release func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan struct{})
	s.release = ch
	return sync.OnceFunc(func() { close(ch) })
}

func (s *stallingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/query/") {
		s.Handler.ServeHTTP(w, r)
		return
	}
	s.mu.Lock()
	release := s.release
	s.mu.Unlock()
	s.Handler.ServeHTTP(&stallingWriter{ResponseWriter: w, left: s.after, release: release}, r)
}

// stallingWriter passes left bytes through, then waits for release.
type stallingWriter struct {
	http.ResponseWriter
	left    int
	release chan struct{}
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.left {
		w.left -= len(p)
		return w.ResponseWriter.Write(p)
	}
	n, err := w.ResponseWriter.Write(p[:w.left])
	w.left = 0
	if err != nil {
		return n, err
	}
	w.Flush()
	<-w.release
	return n, errors.New("stream stalled until its worker died")
}

func (w *stallingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
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

// relaySnapshots writes the relay pins' snapshots: S holds keys × answers
// rows (x, 3y) — one key's answers are a routed request's — served as
// W[bf] and as the all-free F[ff], each materialized in 3 shards.
func relaySnapshots(t testing.TB, keys, answers int) []string {
	s := relation.NewRelation("S", 2)
	for x := 0; x < keys; x++ {
		for y := 0; y < answers; y++ {
			s.MustInsert(relation.Value(x), relation.Value(3*y))
		}
	}
	db := relation.NewDatabase()
	db.Add(s)
	dir := t.TempDir()
	return []string{
		buildSnapshot(t, dir, "w", cq.MustParse("W[bf](x, y) :- S(x, y)"), db, core.WithStrategy(core.MaterializedStrategy), core.WithShards(3)),
		buildSnapshot(t, dir, "f", cq.MustParse("F[ff](x, y) :- S(x, y)"), db, core.WithStrategy(core.MaterializedStrategy), core.WithShards(3)),
	}
}

// relayOnce sends one binary request through the coordinator's handler
// and checks that at least minBytes of a 200 answer came back.
func relayOnce(t testing.TB, c *Coordinator, w *discardResponse, view string, body []byte, minBytes int) {
	req := httptest.NewRequest(http.MethodPost, "/v1/query/"+view, bytes.NewReader(body))
	req.Header.Set("Accept", httpserve.BinaryMediaType)
	w.status, w.bytes = 0, 0
	c.ServeHTTP(w, req)
	if w.status != http.StatusOK || w.bytes < minBytes {
		t.Fatalf("%s: status %d after %d bytes", view, w.status, w.bytes)
	}
}

// TestRoutedRelayAllocsPerTuple pins the coordinator's relay the way the
// node's serving pins pin the node: one routed 8192-answer request, whose
// worker frames are lent from the link's read buffer and pass the merge
// straight through into a reused encode buffer, allocates per request,
// not per tuple. AllocsPerRun counts every goroutine, so the worker's
// handler and both HTTP hops are inside the budget.
func TestRoutedRelayAllocsPerTuple(t *testing.T) {
	const answers = 8192
	cl := startCluster(t, relaySnapshots(t, 1, answers)[:1], 3, 0)
	body := []byte(`{"bindings":{"x":0}}`)
	w := &discardResponse{header: make(http.Header)}
	allocs := testing.AllocsPerRun(20, func() { relayOnce(t, cl.coord, w, "W", body, answers*8) })
	if perTuple := allocs / answers; perTuple >= 0.05 {
		t.Fatalf("relaying %d answers allocated %.0f times: %.3f allocs/tuple, want < 0.05", answers, allocs, perTuple)
	}
	t.Logf("routed relay: %.0f allocations per %d-answer request", allocs, answers)
}

// TestScatterRelayAllocsPerRequest is the scatter twin: one all-free
// enumeration of 3 × 8192 answers merged from 3 worker streams allocates
// per request — three links, the merge — not per tuple or per run.
func TestScatterRelayAllocsPerRequest(t *testing.T) {
	const keys, answers = 3, 8192
	cl := startCluster(t, relaySnapshots(t, keys, answers)[1:], 3, 0)
	w := &discardResponse{header: make(http.Header)}
	allocs := testing.AllocsPerRun(20, func() { relayOnce(t, cl.coord, w, "F", []byte(`{}`), keys*answers*16) })
	if perTuple := allocs / (keys * answers); perTuple >= 0.05 {
		t.Fatalf("merging %d answers allocated %.0f times: %.3f allocs/tuple, want < 0.05", keys*answers, allocs, perTuple)
	}
	t.Logf("scatter relay: %.0f allocations per %d-answer request", allocs, keys*answers)
}

// identitySnapshots writes TestDistributedByteIdentity's two sharded
// snapshots: a materialized view in 3 shards and a Theorem-2
// decomposition in 4, whose EnumOrder is not head order.
func identitySnapshots(t *testing.T, dir string) []string {
	t.Helper()
	return []string{
		buildSnapshot(t, dir, "v", cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), workload.TriangleDB(7, 40, 420),
			core.WithStrategy(core.MaterializedStrategy), core.WithShards(3)),
		buildSnapshot(t, dir, "p", cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"), workload.PathDB(11, 2, 300, 20),
			core.WithStrategy(core.DecompositionStrategy), core.WithShards(4)),
	}
}

// getViews fetches and decodes one tier's GET /v1/views.
func getViews(t *testing.T, h http.Handler) []httpserve.ViewInfo {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/views", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/views: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Views []httpserve.ViewInfo `json:"views"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Views
}

// TestViewsMatchSingleNode holds the coordinator's route cards to what a
// node that decoded the same snapshots reports: every /v1/views field a
// client plans with — names, adornment, EnumOrder, strategy, shard count,
// entries — is equal, though the coordinator keeps no decoded copy.
func TestViewsMatchSingleNode(t *testing.T) {
	paths := identitySnapshots(t, t.TempDir())
	single, err := httpserve.New(paths, httpserve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	c, err := New(paths, Options{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want, got := getViews(t, single), getViews(t, c)
	if len(got) != len(want) {
		t.Fatalf("coordinator lists %d views, node %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Strategy != w.Strategy || g.Shards != w.Shards || g.Entries != w.Entries ||
			fmt.Sprint(g.Bound) != fmt.Sprint(w.Bound) || fmt.Sprint(g.Free) != fmt.Sprint(w.Free) ||
			fmt.Sprint(g.EnumOrder) != fmt.Sprint(w.EnumOrder) {
			t.Errorf("view %d: coordinator %+v, node %+v", i, g, w)
		}
		if w.Name == "P" && w.EnumOrder == nil {
			t.Error("the decomposition view must declare a non-head EnumOrder")
		}
	}
}

// reframe wraps payload in a snapshot frame of the current version with
// valid length and checksum, so only checks inside the payload can tell.
func reframe(raw, payload []byte) []byte {
	const magicLen, headerLen = 6, 16
	out := append([]byte(nil), raw[:magicLen+2]...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// cardSpan locates the shard card of a sharded snapshot: the card's bytes
// are raw[start:end], the first shard frame's length follows. The card is
// read from its own encoding — the enumeration order nil-aware (0, or its
// length plus one, then the positions), then the counted entry list —
// which must sit right before that length.
func cardSpan(t *testing.T, raw []byte) (start, end int, card *core.RouteCard) {
	t.Helper()
	card, err := core.ReadRouteCard(raw)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeCard(card)
	end = card.Frames[0].Off - len(binary.AppendUvarint(nil, uint64(card.Frames[0].Len)))
	start = end - len(enc)
	if start < 0 || !bytes.Equal(raw[start:end], enc) {
		t.Fatal("the shard card does not sit before the first shard frame")
	}
	return start, end, card
}

// encodeCard is the shard card's encoding of card's order and entries.
func encodeCard(card *core.RouteCard) []byte {
	var enc []byte
	if card.EnumOrder == nil {
		enc = binary.AppendUvarint(enc, 0)
	} else {
		enc = binary.AppendUvarint(enc, uint64(len(card.EnumOrder))+1)
		for _, p := range card.EnumOrder {
			enc = binary.AppendUvarint(enc, uint64(p))
		}
	}
	enc = binary.AppendUvarint(enc, uint64(len(card.Entries)))
	for _, n := range card.Entries {
		enc = binary.AppendUvarint(enc, uint64(n))
	}
	return enc
}

// TestNewRejectsCorruptShardFrame damages one nested shard frame, or the
// shard card ahead of the frames, and re-seals the outer checksum, so only
// the shard's own checksum or the card's checks can tell: the coordinator
// must refuse the snapshot at New, before any worker fetches a frame.
func TestNewRejectsCorruptShardFrame(t *testing.T) {
	paths := identitySnapshots(t, t.TempDir())
	read := func(i int) []byte {
		raw, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	const headerLen = 16
	routed, decomposed := read(0), read(1)
	rs, re, _ := cardSpan(t, routed)
	ds, _, dcard := cardSpan(t, decomposed)
	if dcard.EnumOrder == nil {
		t.Fatal("the decomposition view must declare a non-head EnumOrder")
	}
	for _, c := range []struct {
		name   string
		raw    []byte
		inErrs string
	}{
		{"nested checksum", func() []byte {
			raw := slices.Clone(routed)
			fr := routeFrames(t, raw)[0]
			raw[fr.Off+fr.Len-5] ^= 0x01 // the shard's last payload byte
			return reframe(raw, raw[headerLen:len(raw)-4])
		}(), "shard 0"},
		{"truncated card", reframe(routed, routed[headerLen:(rs+re)/2]), ""},
		{"entry list short", func() []byte {
			// The entry count sits right after the one-byte nil order.
			payload := slices.Clone(routed[headerLen : len(routed)-4])
			payload[rs-headerLen+1]--
			return reframe(routed, payload)
		}(), "entry counts"},
		{"order not a permutation", func() []byte {
			// The order's first two positions follow its length byte.
			payload := slices.Clone(decomposed[headerLen : len(decomposed)-4])
			payload[ds-headerLen+2] = payload[ds-headerLen+1]
			return reframe(decomposed, payload)
		}(), "permutation"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(path, c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := New([]string{path}, Options{SpoolDir: t.TempDir()})
			if !errors.Is(err, core.ErrBadSnapshot) {
				t.Fatalf("New = %v, want ErrBadSnapshot", err)
			}
			if !strings.Contains(err.Error(), c.inErrs) {
				t.Fatalf("New = %v, want it to name %q", err, c.inErrs)
			}
		})
	}
}

// routeFrames is the byte range of each shard frame in a sharded
// snapshot.
func routeFrames(t *testing.T, raw []byte) []core.FrameRange {
	t.Helper()
	card, err := core.ReadRouteCard(raw)
	if err != nil {
		t.Fatal(err)
	}
	return card.Frames
}

// TestUndecodableFrameFailsJoin: a shard frame whose checksum holds but
// whose payload does not decode passes New, which decodes nothing, and
// fails at the worker: the attach is refused, Join returns the error, and
// no shard is owned, so the coordinator does not report ready.
func TestUndecodableFrameFailsJoin(t *testing.T) {
	path := identitySnapshots(t, t.TempDir())[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const headerLen = 16
	fr := routeFrames(t, raw)[1]
	payload := raw[fr.Off+headerLen : fr.Off+fr.Len-4]
	for i := range payload {
		payload[i] = 0xff // no uvarint ends: the view name cannot decode
	}
	binary.BigEndian.PutUint32(raw[fr.Off+fr.Len-4:], crc32.ChecksumIEEE(payload))
	raw = reframe(raw, raw[headerLen:len(raw)-4])
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	joinRefused(t, path, "V@1")
}

// joinRefused starts a coordinator over the snapshot at path, which New
// must accept, and joins one worker: the attach of shard must be refused,
// Join must return the error, no shard may be owned, and the coordinator
// must not report ready.
func joinRefused(t *testing.T, path, shard string) {
	t.Helper()
	cts := httptest.NewServer(nil)
	defer cts.Close()
	c, err := New([]string{path}, Options{SelfURL: cts.URL, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New must take a snapshot whose checksums and card hold: %v", err)
	}
	defer c.Close()
	cts.Config.Handler = c
	wh, err := httpserve.NewSpecs(nil, httpserve.Options{Admin: true, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	wts := httptest.NewServer(wh)
	defer wts.Close()

	err = c.Join(context.Background(), wts.URL)
	if err == nil || !strings.Contains(err.Error(), shard) {
		t.Fatalf("Join = %v, want the attach of %s refused", err, shard)
	}
	t.Logf("Join = %v", err)
	for view, owners := range c.currentOwners() {
		for i, o := range owners {
			if o != "" {
				t.Errorf("%s@%d is owned by %s after the failed join", view, i, o)
			}
		}
	}
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after the failed join, want 503", rec.Code)
	}
}

// TestLyingRouteCardFailsJoin: a shard card that is well formed but wrong —
// another valid enumeration order, another entry count — under a re-sealed
// outer checksum passes New, which decodes no shard; the worker's attach
// reply reports what the shard decoded to, and the coordinator refuses the
// shard whose reply disagrees with its card rather than merge in the
// card's order.
func TestLyingRouteCardFailsJoin(t *testing.T) {
	const headerLen = 16
	for _, c := range []struct {
		name, shard string
		lie         func(*core.RouteCard)
	}{
		{"lie: order", "V@0", func(card *core.RouteCard) { card.EnumOrder = []int{0} }},
		{"lie: entries", "V@2", func(card *core.RouteCard) { card.Entries[2]++ }},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := identitySnapshots(t, t.TempDir())[0]
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			start, end, card := cardSpan(t, raw)
			c.lie(card)
			raw = reframe(raw, slices.Concat(raw[headerLen:start], encodeCard(card), raw[end:len(raw)-4]))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			joinRefused(t, path, c.shard)
		})
	}
}

// TestSpoolFilesEqualWriteShard: the coordinator copies each shard frame
// out of the snapshot without decoding it; each spool file must be, byte
// for byte, what WriteShard writes for the decoded representation.
func TestSpoolFilesEqualWriteShard(t *testing.T) {
	paths := identitySnapshots(t, t.TempDir())
	c, err := New(paths, Options{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, path := range paths {
		rep, err := httpserve.LoadSnapshot(path, false)
		if err != nil {
			t.Fatal(err)
		}
		vm := c.views[rep.View().Name]
		if len(vm.files) != rep.ShardCount() {
			t.Fatalf("%s: %d spool files for %d shards", path, len(vm.files), rep.ShardCount())
		}
		for i, fp := range vm.files {
			var want bytes.Buffer
			if _, err := rep.WriteShard(i, &want); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(fp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s: spool file of shard %d differs from WriteShard", rep.View().Name, i)
			}
		}
	}
}
