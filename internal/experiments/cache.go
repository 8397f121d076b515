package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"cqrep/internal/bench"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// cache.go is E21: the generation-keyed hot-binding result cache
// (DESIGN.md §8) under Zipf-distributed bound-key workloads. Real read
// traffic is skewed — a few bindings carry most requests — and the cache
// converts that skew into served throughput by replaying encoded result
// streams from memory. The experiment sweeps the Zipf exponent with a
// budget deliberately too small for the full key set, so the hit rate is
// earned by LRU keeping the hot ranks resident, not by caching everything.

// buildHotSnapshot compiles a fully-bound fan-out view — keys bound keys,
// perKey result tuples each — and snapshots it into dir. Key k's results
// are (k, 0..perKey-1), so every response size is known without decoding.
func buildHotSnapshot(dir string, keys, perKey int) (string, error) {
	if perKey < 1 {
		perKey = 1
	}
	view := cq.MustParse("C[bf](x, y) :- T(x, y)")
	db := relation.NewDatabase()
	tr := relation.NewRelation("T", 2)
	for k := 0; k < keys; k++ {
		for j := 0; j < perKey; j++ {
			tr.MustInsert(relation.Value(k), relation.Value(j))
		}
	}
	db.Add(tr)
	rep, err := core.Build(view, db, core.WithStrategy(core.MaterializedStrategy))
	if err != nil {
		return "", fmt.Errorf("hot-view compile: %w", err)
	}
	path := filepath.Join(dir, "c.cqs")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := rep.WriteTo(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// hotBodies pre-marshals the request body for each key.
func hotBodies(keys int) [][]byte {
	bodies := make([][]byte, keys)
	for k := range bodies {
		bodies[k] = []byte(fmt.Sprintf(`{"bindings":{"x":%d}}`, k))
	}
	return bodies
}

// zipfServeSweep fires the pre-drawn request order across clients
// concurrent connections, draining (and discarding) each binary response,
// and returns the wall time. Draining without decoding keeps the client's
// cost identical for cached and live responses, so the wall-time ratio is
// the server-side difference.
func zipfServeSweep(base, view string, bodies [][]byte, order []int, clients int) (time.Duration, error) {
	errc := make(chan error, clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		go func(w int) {
			for i := w; i < len(order); i += clients {
				req, err := http.NewRequest(http.MethodPost, base+"/v1/query/"+view, bytes.NewReader(bodies[order[i]]))
				if err != nil {
					errc <- err
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("Accept", httpserve.BinaryMediaType)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errc <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("key %d: %s", order[i], resp.Status)
					return
				}
			}
			errc <- nil
		}(w)
	}
	var first error
	for w := 0; w < clients; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(start), first
}

// rawHotQuery fetches one key's full response bytes for the conformance
// comparisons.
func rawHotQuery(base, view string, body []byte, format httpserve.Format) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query/"+view, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", format.MediaType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// checkCachedIdentity verifies, for every key in both encodings, that the
// cached server's response is byte-identical to the cache-off server's —
// twice, so both the miss-fill and the hit-replay paths are compared.
func checkCachedIdentity(baseURL, cachedURL, view string, bodies [][]byte) error {
	for pass := 0; pass < 2; pass++ {
		for k, body := range bodies {
			for _, format := range []httpserve.Format{httpserve.FormatNDJSON, httpserve.FormatBinary} {
				want, err := rawHotQuery(baseURL, view, body, format)
				if err != nil {
					return fmt.Errorf("cache-off key %d (%v): %w", k, format, err)
				}
				got, err := rawHotQuery(cachedURL, view, body, format)
				if err != nil {
					return fmt.Errorf("cached key %d (%v): %w", k, format, err)
				}
				if !bytes.Equal(want, got) {
					return fmt.Errorf("key %d (%v) pass %d: cached response diverges from cache-off", k, format, pass)
				}
			}
		}
	}
	return nil
}

// E21CachedServe sweeps the Zipf exponent over a 64-key fully-bound
// workload against two servers on the same snapshot — cache off and a
// cache whose budget holds only a fraction of the key set — and reports
// the hit rate the skew earns and the throughput it buys. Every response
// is verified byte-identical between the two servers, in both encodings,
// before anything is timed.
func E21CachedServe(edges, requests int, seed int64, clients int) []*bench.Table {
	const keys = 64
	if clients < 1 {
		clients = 4
	}
	if requests < keys {
		requests = keys * 4
	}
	perKey := edges / 8
	if perKey < 1 {
		perKey = 1
	}

	dir, err := os.MkdirTemp("", "cqrep-e21-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path, err := buildHotSnapshot(dir, keys, perKey)
	if err != nil {
		panic(fmt.Sprintf("E21: %v", err))
	}

	base, err := httpserve.New([]string{path}, httpserve.Options{})
	if err != nil {
		panic(err)
	}
	defer base.Close()
	baseTS := httptest.NewServer(base)
	defer baseTS.Close()

	// Budget ~16 of 64 entries: the binary body is ~17 bytes per tuple
	// plus framing, so entryBytes slightly overestimates one entry and the
	// budget genuinely cannot hold the whole key set.
	entryBytes := int64(perKey)*20 + 256
	cached, err := httpserve.New([]string{path}, httpserve.Options{CacheBytes: 16 * entryBytes})
	if err != nil {
		panic(err)
	}
	defer cached.Close()
	cachedTS := httptest.NewServer(cached)
	defer cachedTS.Close()

	bodies := hotBodies(keys)
	if err := checkCachedIdentity(baseTS.URL, cachedTS.URL, "C", bodies); err != nil {
		panic(fmt.Sprintf("E21: %v", err))
	}

	t := bench.NewTable(fmt.Sprintf("E21 Cached serving under Zipf workloads (%d keys × %d tuples, budget ≈ 16 entries)", keys, perKey),
		"zipf s", "requests", "hit rate", "cache-off tuples/s", "cached tuples/s", "speedup")
	t.Note = "every response verified byte-identical between the cached and cache-off servers (both encodings, miss and hit passes) before timing; the cache persists across rows, so each row starts from the previous skew's resident set — the steady state a long-running server sees"

	for _, s := range []float64{0, 0.5, 0.9, 1.1, 1.5} {
		z := workload.NewZipf(keys, s)
		rng := rand.New(rand.NewSource(seed + int64(s*100)))
		order := make([]int, requests)
		for i := range order {
			order[i] = z.Draw(rng)
		}

		wallOff, err := zipfServeSweep(baseTS.URL, "C", bodies, order, clients)
		if err != nil {
			panic(fmt.Sprintf("E21: cache-off sweep s=%.1f: %v", s, err))
		}
		st0, _ := cached.CacheStats()
		wallOn, err := zipfServeSweep(cachedTS.URL, "C", bodies, order, clients)
		if err != nil {
			panic(fmt.Sprintf("E21: cached sweep s=%.1f: %v", s, err))
		}
		st1, _ := cached.CacheStats()

		tuples := float64(requests * perKey)
		hits := st1.Hits - st0.Hits
		coal := st1.Coalesced - st0.Coalesced
		misses := st1.Misses - st0.Misses
		hitRate := float64(hits+coal) / float64(hits+coal+misses)
		t.Add(fmt.Sprintf("%.1f", s), requests, fmt.Sprintf("%.1f%%", 100*hitRate),
			fmt.Sprintf("%.3g", tuples/wallOff.Seconds()),
			fmt.Sprintf("%.3g", tuples/wallOn.Seconds()),
			fmt.Sprintf("%.2fx", wallOff.Seconds()/wallOn.Seconds()))
	}
	return []*bench.Table{t}
}
