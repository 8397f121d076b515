package httpserve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// churn_test.go hammers the HTTP layer's two swap points under the race
// detector: hot reload (POST /v1/reload) and shutdown (Handler.Close)
// while queries are in flight. The invariant in both cases is that no
// request ever observes a half-swapped representation: every response is
// either one complete enumeration from exactly one snapshot generation,
// or a clean error — never a silent blend or truncation.

// churnView is served by every churn snapshot generation.
var churnView = cq.MustParse("V[bf](x, y) :- R(x, y)")

// writeChurnSnapshot compiles a generation whose 10 answers for x=1 all
// live in [marker, marker+10) and atomically installs it at path. It
// returns an error instead of failing the test so goroutines can call it.
func writeChurnSnapshot(path string, marker relation.Value) error {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	for i := relation.Value(0); i < 10; i++ {
		r.MustInsert(1, marker+i)
	}
	db.Add(r)
	rep, err := core.Build(churnView, db)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := rep.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// checkWholeGeneration asserts a response is one complete, single-
// generation enumeration: exactly 10 tuples, all from the same marker.
func checkWholeGeneration(tuples []relation.Tuple) error {
	if len(tuples) != 10 {
		return fmt.Errorf("got %d tuples, want 10 (truncated or blended stream)", len(tuples))
	}
	gen := tuples[0][0] / 1000
	for _, tp := range tuples {
		if tp[0]/1000 != gen {
			return fmt.Errorf("tuples mix generations: %v", tuples)
		}
	}
	return nil
}

func TestReloadChurn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.cqs")
	if err := writeChurnSnapshot(path, 1000); err != nil {
		t.Fatal(err)
	}
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	const reloads = 30
	var done atomic.Bool
	var wg sync.WaitGroup

	// Writer: alternate snapshot generations and hot-reload each one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < reloads; i++ {
			if err := writeChurnSnapshot(path, relation.Value(1000*(i%2+1))); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
			if _, err := cl.Reload(context.Background()); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()

	// Readers: every response must be one whole generation.
	var served, unavailable atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				res, err := cl.Query(context.Background(), "V", map[string]relation.Value{"x": 1}, 0)
				if err != nil {
					var re *RemoteError
					// A request that exhausts its retries while reloads
					// storm past it backs off with 503; that is a clean
					// refusal, not a torn read.
					if errors.As(err, &re) && re.Status == 503 {
						unavailable.Add(1)
						continue
					}
					t.Errorf("query: %v", err)
					return
				}
				if err := checkWholeGeneration(res.Tuples); err != nil {
					t.Error(err)
					return
				}
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no query completed during the reload churn")
	}
	t.Logf("reload churn: %d whole-generation responses, %d clean 503s across %d reloads", served.Load(), unavailable.Load(), reloads)
}

// TestReloadChurnCached is the reload churn with the result cache on: the
// whole-generation invariant must survive hits, coalesced misses, and
// generation invalidations racing the reload swaps. Every cached replay is
// bytes one live stream produced under one refcounted registry entry, so
// a blend would mean the generation keying is broken.
func TestReloadChurnCached(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.cqs")
	if err := writeChurnSnapshot(path, 1000); err != nil {
		t.Fatal(err)
	}
	h, err := New([]string{path}, Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	const reloads = 30
	var done atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < reloads; i++ {
			if err := writeChurnSnapshot(path, relation.Value(1000*(i%2+1))); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
			if _, err := cl.Reload(context.Background()); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()

	// Readers repeat one hot binding in both wire formats, so the run
	// exercises hits and coalesced followers, not just leader fills.
	var served, unavailable atomic.Int64
	for w := 0; w < 4; w++ {
		format := FormatNDJSON
		if w%2 == 1 {
			format = FormatBinary
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				res, err := cl.QueryOpts(context.Background(), "V", QueryOptions{
					Bindings: map[string]relation.Value{"x": 1}, Format: format,
				})
				if err != nil {
					var re *RemoteError
					if errors.As(err, &re) && re.Status == 503 {
						unavailable.Add(1)
						continue
					}
					t.Errorf("query: %v", err)
					return
				}
				if err := checkWholeGeneration(res.Tuples); err != nil {
					t.Error(err)
					return
				}
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no query completed during the cached reload churn")
	}
	st, on := h.CacheStats()
	if !on {
		t.Fatal("cache reported off despite CacheBytes")
	}
	if st.Hits+st.Misses+st.Coalesced == 0 {
		t.Fatal("no request took the cached path")
	}
	t.Logf("cached reload churn: %d whole responses, %d clean 503s; cache %d hits / %d misses / %d coalesced / %d invalidated",
		served.Load(), unavailable.Load(), st.Hits, st.Misses, st.Coalesced, st.Invalidated)
}

func TestShutdownChurn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.cqs")
	if err := writeChurnSnapshot(path, 1000); err != nil {
		t.Fatal(err)
	}
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	var wg sync.WaitGroup
	var whole, refused atomic.Int64
	start := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				res, err := cl.Query(context.Background(), "V", map[string]relation.Value{"x": 1}, 0)
				if err != nil {
					// Shutdown surfaces as a 503, a terminal stream error
					// (the pool closed mid-stream), or a transport error —
					// all clean refusals.
					refused.Add(1)
					continue
				}
				if err := checkWholeGeneration(res.Tuples); err != nil {
					t.Errorf("response during shutdown: %v", err)
					return
				}
				whole.Add(1)
			}
		}()
	}
	close(start)
	h.Close() // races the queries on purpose
	wg.Wait()
	if whole.Load()+refused.Load() != 6*50 {
		t.Fatalf("accounted %d responses, want %d", whole.Load()+refused.Load(), 6*50)
	}
	t.Logf("shutdown churn: %d whole responses, %d clean refusals", whole.Load(), refused.Load())
}
