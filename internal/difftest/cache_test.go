package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"cqrep/internal/coord"
	"cqrep/internal/core"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// cache_test.go is the cached differential composite: with the result
// cache on, every response — first miss, warm hit, post-invalidation
// refill — must be byte-identical to the cache-off server's response, on
// both serving fronts, in both encodings, across the same 120 seeded
// random instances the other differential composites use. The cache is an
// optimization whose only observable effect is allowed to be latency.

// cachedInstance is one compiled seeded case plus its snapshot path.
type cachedInstance struct {
	c    *Case
	name string
}

// buildCachedInstances compiles the standard 120 seeded instances into
// dir, with optional build options (e.g. sharding for the distributed
// composite), returning the snapshot paths and cases.
func buildCachedInstances(t *testing.T, dir string, instances int, opts ...core.Option) ([]string, []cachedInstance) {
	t.Helper()
	paths := make([]string, 0, instances)
	insts := make([]cachedInstance, 0, instances)
	for seed := 0; seed < instances; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		c := Generate(rng)
		c.View.Name = fmt.Sprintf("Q%d", seed)
		rep, err := core.Build(c.View, c.DB, opts...)
		if err != nil {
			t.Fatalf("seed %d: build: %v\nview: %v", seed, err, c.View)
		}
		path := filepath.Join(dir, fmt.Sprintf("q%d.cqs", seed))
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
		paths = append(paths, path)
		insts = append(insts, cachedInstance{c: c, name: c.View.Name})
	}
	return paths, insts
}

// rawCached POSTs one query and returns status plus raw body bytes — the
// comparison unit of the composite is the wire bytes, not decoded tuples.
func rawCached(t *testing.T, base, view string, body []byte, format httpserve.Format) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query/"+view, bytes.NewReader(body))
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
	return resp.StatusCode, b
}

// comparePass replays every binding of every instance in both formats
// against the base (cache-off) and cached servers and requires identical
// status and bytes; pass names the phase for failure messages.
func comparePass(t *testing.T, pass, baseURL, cachedURL string, insts []cachedInstance) int {
	t.Helper()
	checked := 0
	for seed, in := range insts {
		answers := in.c.NaiveAnswers()
		for _, vb := range Valuations(answers, len(in.c.Bound)) {
			bind := make(map[string]relation.Value, len(in.c.Bound))
			for i, n := range in.c.Bound {
				bind[n] = vb[i]
			}
			body, err := json.Marshal(map[string]any{"bindings": bind})
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range []httpserve.Format{httpserve.FormatNDJSON, httpserve.FormatBinary} {
				wantStatus, want := rawCached(t, baseURL, in.name, body, format)
				gotStatus, got := rawCached(t, cachedURL, in.name, body, format)
				if wantStatus != gotStatus {
					t.Fatalf("%s: seed %d: binding %v (%s): cached status %d != cache-off %d", pass, seed, vb, format, gotStatus, wantStatus)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s: seed %d: binding %v (%s): cached body diverges from cache-off\nwant %q\ngot  %q\nview: %v",
						pass, seed, vb, format, want, got, in.c.View)
				}
			}
			checked++
		}
	}
	return checked
}

// TestCachedDifferential is the single-node composite: one cache-off and
// one cache-on handler over the same 120 snapshots, compared byte for byte
// through a cold pass (every cached response a miss fill), a warm pass
// (every repeat a hit replay), and a post-reload pass (the generation bump
// invalidated the working set, so the refills must still match).
func TestCachedDifferential(t *testing.T) {
	const instances = 120
	paths, insts := buildCachedInstances(t, t.TempDir(), instances)

	base, err := httpserve.New(paths, httpserve.Options{FlushBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	baseTS := httptest.NewServer(base)
	defer baseTS.Close()

	cached, err := httpserve.New(paths, httpserve.Options{FlushBatch: 3, CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	cachedTS := httptest.NewServer(cached)
	defer cachedTS.Close()

	checked := comparePass(t, "cold", baseTS.URL, cachedTS.URL, insts)
	if checked < instances {
		t.Fatalf("only %d bindings checked; generator degenerated", checked)
	}
	comparePass(t, "warm", baseTS.URL, cachedTS.URL, insts)
	st, on := cached.CacheStats()
	if !on || st.Hits == 0 {
		t.Fatalf("warm pass produced no cache hits (stats %+v); the composite is not exercising replays", st)
	}

	// Reload churn: the snapshots on disk are unchanged, so the swapped-in
	// generation enumerates identically — but every cached entry is stale
	// by key and must be refilled, not replayed.
	resp, err := http.Post(cachedTS.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %s", resp.Status)
	}
	comparePass(t, "post-reload", baseTS.URL, cachedTS.URL, insts)

	st, _ = cached.CacheStats()
	if st.Invalidated == 0 {
		t.Fatal("reload invalidated nothing; generation keying is not wired")
	}
	t.Logf("cached differential: %d instances, %d bindings × 2 formats × 3 passes; cache %d hits / %d misses / %d invalidated",
		instances, checked, st.Hits, st.Misses, st.Invalidated)
}

// TestDistributedDifferentialCached is the distributed composite: a
// coordinator with the merged-result cache on versus a cache-off
// single-node server over the same sharded snapshots, through cold, warm,
// and post-move passes — a shard move bumps the map generation, so the
// warm working set must refill through live scatters and still match.
func TestDistributedDifferentialCached(t *testing.T) {
	const instances = 120
	dir := t.TempDir()
	paths, insts := buildCachedInstances(t, dir, instances, core.WithShards(3))

	single, err := httpserve.New(paths, httpserve.Options{FlushBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	singleTS := httptest.NewServer(single)
	defer singleTS.Close()

	var cptr atomic.Pointer[coord.Coordinator]
	coordTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := cptr.Load()
		if c == nil {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		c.ServeHTTP(w, r)
	}))
	defer coordTS.Close()
	co, err := coord.New(paths, coord.Options{SelfURL: coordTS.URL, SpoolDir: t.TempDir(), FlushBatch: 3, CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	cptr.Store(co)

	workerURLs := make([]string, 3)
	for i := 0; i < 3; i++ {
		wh, err := httpserve.NewSpecs(nil, httpserve.Options{Admin: true, SpoolDir: t.TempDir(), FlushBatch: 3})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer wh.Close()
		wts := httptest.NewServer(wh)
		defer wts.Close()
		workerURLs[i] = wts.URL
		body, _ := json.Marshal(map[string]string{"url": wts.URL})
		resp, err := http.Post(coordTS.URL+"/v1/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("joining worker %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("joining worker %d: %s: %s", i, resp.Status, b)
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(coordTS.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator not ready after 3 joins: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	checked := comparePass(t, "cold", singleTS.URL, coordTS.URL, insts)
	if checked < instances {
		t.Fatalf("only %d bindings checked; generator degenerated", checked)
	}
	comparePass(t, "warm", singleTS.URL, coordTS.URL, insts)
	st, on := co.CacheStats()
	if !on || st.Hits == 0 {
		t.Fatalf("warm pass produced no coordinator cache hits (stats %+v)", st)
	}

	// Move churn: rehome one shard of a few views; the map generation bump
	// invalidates every cached merge, and the refilled streams must still
	// be byte-identical to the single node.
	ctx := t.Context()
	for i := 0; i < 5; i++ {
		if err := co.Move(ctx, insts[i].name, 1, workerURLs[(i+1)%3]); err != nil {
			t.Fatalf("move %s: %v", insts[i].name, err)
		}
	}
	comparePass(t, "post-move", singleTS.URL, coordTS.URL, insts)

	st, _ = co.CacheStats()
	if st.Invalidated == 0 {
		t.Fatal("moves invalidated nothing; shard-map generation keying is not wired")
	}
	t.Logf("distributed cached differential: %d instances over 3 workers, %d bindings × 2 formats × 3 passes; cache %d hits / %d misses / %d invalidated",
		instances, checked, st.Hits, st.Misses, st.Invalidated)
}
