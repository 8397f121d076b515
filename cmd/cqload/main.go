// Command cqload drives a running cqserve instance with concurrent
// clients and reports delay percentiles:
//
//	cqserve -snapshot v.cqs -addr :8080 &
//	cqload -url http://127.0.0.1:8080 -view V -bindings req.txt -c 8 -n 2000
//
// The bindings file carries one access request per line: bound values
// separated by spaces, in the view's bound-variable order (the same
// format `cqcli serve` reads from stdin); cqload fetches /v1/views to map
// the positions onto names. Requests are fired round-robin by -c
// concurrent clients until -n requests complete, then p50/p95/p99 of the
// time-to-first-tuple delay and of the total request time are printed
// with the achieved request and tuple throughput and the client-side
// allocation cost per request (runtime.MemStats deltas across the run).
//
// -format picks the stream encoding to request: ndjson (default) or
// binary, the length-prefixed framing of DESIGN.md §5.
//
// -dist picks how requests draw from the bindings file: roundrobin
// (default) cycles through the lines, zipf draws them Zipf-distributed
// with exponent -zipf-s (first line hottest) — the hot-key workload the
// server-side result cache (DESIGN.md §8) is built for. The draw order is
// generated up front from -seed, so a run is reproducible regardless of
// client scheduling. When the target has its cache enabled, the run ends
// with the cache's hit/miss/coalesce deltas and the observed hit ratio
// from /v1/stats.
//
// -coord marks the target as a cqcoord coordinator (the query API is
// identical, so the load loop is unchanged) and appends the coordinator's
// per-worker breakdown — requests, errors, and first-tuple latency per
// worker, deltas across the run — so scatter-gather tail latency is
// attributable to the worker that caused it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/bench"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

type sample struct {
	first, total time.Duration
	tuples       int
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "cqserve base URL")
	view := flag.String("view", "", "view name to query (default: the only served view)")
	bindingsFile := flag.String("bindings", "", "file with one space-separated bound valuation per line ('-' = stdin); empty = one unbound request shape")
	clients := flag.Int("c", 4, "concurrent clients")
	total := flag.Int("n", 200, "total requests")
	limit := flag.Int("limit", 0, "per-request tuple limit (0 = drain fully)")
	formatFlag := flag.String("format", "ndjson", "stream encoding to request: ndjson or binary")
	dist := flag.String("dist", "roundrobin", "request distribution over the binding lines: roundrobin or zipf (first line hottest)")
	zipfS := flag.Float64("zipf-s", 1.1, "zipf exponent for -dist zipf (higher = more skew)")
	seed := flag.Int64("seed", 1, "rng seed for -dist zipf draw order")
	coordMode := flag.Bool("coord", false, "target is a cqcoord coordinator: report its per-worker latency breakdown after the run")
	flag.Parse()

	format, err := httpserve.ParseFormat(*formatFlag)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *clients < 1 || *total < 1 {
		fatal(fmt.Errorf("-c and -n must be at least 1"))
	}
	c := &httpserve.Client{Base: *url}
	views, err := c.Views(ctx)
	if err != nil {
		fatal(fmt.Errorf("fetching /v1/views: %w", err))
	}
	info, err := pickView(views, *view)
	if err != nil {
		fatal(err)
	}
	reqs, err := loadBindings(*bindingsFile, info.Bound)
	if err != nil {
		fatal(err)
	}
	order, err := requestOrder(*dist, *zipfS, *seed, len(reqs), *total)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "cqload: %s view %s (bound %v, free %v, %s, %d shards): %d requests, %d clients, %s stream, %s dist\n",
		*url, info.Name, info.Bound, info.Free, info.Strategy, info.Shards, *total, *clients, format, *dist)

	// Per-worker deltas need a before snapshot: the coordinator's counters
	// are cumulative since boot, and only this run's traffic should show.
	var before []workerReport
	if *coordMode {
		if before, err = coordWorkers(ctx, *url); err != nil {
			fatal(fmt.Errorf("-coord: fetching coordinator /v1/stats: %w", err))
		}
	}
	// Same for the cache counters: a nil snapshot means the target serves
	// without a cache, and no cache line is printed.
	cacheBefore, _ := cacheStats(ctx, *url)

	// MemStats deltas across the whole run give the client-side decode
	// cost per request — the number the binary framing is meant to shrink.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	samples, errs := fire(ctx, c, info.Name, reqs, order, *clients, *total, *limit, format)
	runtime.ReadMemStats(&m1)
	if len(samples) == 0 {
		fatal(fmt.Errorf("no requests completed (%d errors)", errs))
	}
	report(os.Stdout, samples, errs, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
	if cacheBefore != nil {
		if cacheAfter, err := cacheStats(ctx, *url); err == nil && cacheAfter != nil {
			reportCache(os.Stdout, cacheBefore, cacheAfter)
		}
	}
	if *coordMode {
		after, err := coordWorkers(ctx, *url)
		if err != nil {
			fatal(fmt.Errorf("-coord: fetching coordinator /v1/stats: %w", err))
		}
		reportWorkers(os.Stdout, before, after)
	}
}

// requestOrder pre-generates which binding line each of the total requests
// uses. roundrobin cycles; zipf draws Zipf(s)-distributed ranks with the
// first binding line hottest. Generating up front keeps the workload a
// pure function of -seed: concurrent clients consume the order by index,
// so scheduling cannot change which keys get hot.
func requestOrder(dist string, s float64, seed int64, lines, total int) ([]int, error) {
	order := make([]int, total)
	switch dist {
	case "roundrobin":
		for i := range order {
			order[i] = i % lines
		}
	case "zipf":
		z := workload.NewZipf(lines, s)
		rng := rand.New(rand.NewSource(seed))
		for i := range order {
			order[i] = z.Draw(rng)
		}
	default:
		return nil, fmt.Errorf("-dist %q: want roundrobin or zipf", dist)
	}
	return order, nil
}

// pickView resolves the requested view name against the registry; with no
// -view it accepts an unambiguous single-view registry.
func pickView(views []httpserve.ViewInfo, name string) (httpserve.ViewInfo, error) {
	if name == "" {
		if len(views) == 1 {
			return views[0], nil
		}
		names := make([]string, len(views))
		for i, v := range views {
			names[i] = v.Name
		}
		return httpserve.ViewInfo{}, fmt.Errorf("server hosts %d views %v, pick one with -view", len(views), names)
	}
	for _, v := range views {
		if v.Name == name {
			return v, nil
		}
	}
	return httpserve.ViewInfo{}, fmt.Errorf("view %q is not served (GET /v1/views)", name)
}

// loadBindings reads the request file into name→value maps using the
// view's bound order. An empty path yields one empty request, which is
// only valid for views with no bound variables.
func loadBindings(path string, bound []string) ([]map[string]relation.Value, error) {
	if path == "" {
		if len(bound) > 0 {
			return nil, fmt.Errorf("view binds %v: provide request valuations with -bindings FILE", bound)
		}
		return []map[string]relation.Value{nil}, nil
	}
	f := os.Stdin
	if path != "-" {
		var err error
		f, err = os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
	}
	var out []map[string]relation.Value
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != len(bound) {
			return nil, fmt.Errorf("binding line %q has %d values, view binds %d (%v)", line, len(fields), len(bound), bound)
		}
		m := make(map[string]relation.Value, len(fields))
		for i, fval := range fields {
			v, err := strconv.ParseInt(fval, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("binding line %q: bad value %q", line, fval)
			}
			m[bound[i]] = relation.Value(v)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no binding lines", path)
	}
	return out, nil
}

// fire runs the load: clients goroutines pull request indexes off a
// shared counter and issue the binding line order names for each index
// until total requests have been issued or ctx is cancelled.
func fire(ctx context.Context, c *httpserve.Client, view string, reqs []map[string]relation.Value, order []int, clients, total, limit int, format httpserve.Format) ([]sample, int) {
	var next, errs atomic.Int64
	samples := make([]sample, total)
	var taken atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total || ctx.Err() != nil {
					return
				}
				res, err := c.QueryOpts(ctx, view, httpserve.QueryOptions{
					Bindings: reqs[order[i]], Limit: limit, Format: format,
				})
				if err != nil {
					errs.Add(1)
					continue
				}
				samples[taken.Add(1)-1] = sample{first: res.FirstTuple, total: res.Total, tuples: len(res.Tuples)}
			}
		}()
	}
	wg.Wait()
	return samples[:taken.Load()], int(errs.Load())
}

// report prints the percentile table plus the client-side allocation cost
// per completed request (process-wide MemStats deltas, so concurrent
// client goroutines are all accounted).
func report(w *os.File, samples []sample, errs int, allocs, bytes uint64) {
	firsts := make([]time.Duration, 0, len(samples))
	totals := make([]time.Duration, len(samples))
	var wall time.Duration
	tuples := 0
	for i, s := range samples {
		if s.tuples > 0 {
			firsts = append(firsts, s.first)
		}
		totals[i] = s.total
		wall += s.total
		tuples += s.tuples
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })

	// The two percentile lines cover different populations when some
	// requests return no tuples (a miss has a total but no first-tuple
	// delay), so each line names the requests it describes — otherwise a
	// bindings file with many misses prints an impossible-looking
	// "total p50 < first-tuple p50".
	fmt.Fprintf(w, "requests   %d ok, %d errors, %d tuples\n", len(samples), errs, tuples)
	if len(firsts) > 0 {
		fmt.Fprintf(w, "first-tuple delay  p50 %v  p95 %v  p99 %v  (%d/%d answered requests)\n",
			bench.Percentile(firsts, 0.50), bench.Percentile(firsts, 0.95), bench.Percentile(firsts, 0.99),
			len(firsts), len(samples))
	}
	fmt.Fprintf(w, "total latency      p50 %v  p95 %v  p99 %v  (all %d requests)\n",
		bench.Percentile(totals, 0.50), bench.Percentile(totals, 0.95), bench.Percentile(totals, 0.99), len(samples))
	if mean := wall / time.Duration(len(samples)); mean > 0 {
		fmt.Fprintf(w, "throughput         %.0f req/s per client (mean latency %v)\n", float64(time.Second)/float64(mean), mean.Round(time.Microsecond))
	}
	n := float64(len(samples))
	fmt.Fprintf(w, "client alloc       %.0f allocs/op  %.0f B/op\n", float64(allocs)/n, float64(bytes)/n)
}

// cacheCounters mirrors the "cache" block both cqserve and cqcoord emit
// in /v1/stats when their result cache is on (httpserve.CacheStats on the
// wire).
type cacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
}

// cacheStats fetches the target's cache counters; (nil, nil) means the
// target serves without a cache (no "cache" block in /v1/stats).
func cacheStats(ctx context.Context, base string) (*cacheCounters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s", resp.Status)
	}
	var body struct {
		Cache *cacheCounters `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Cache, nil
}

// reportCache prints the run's cache counter deltas and the observed hit
// ratio. Coalesced waiters count as hits for the ratio — they got their
// bytes from one shared enumeration, which is the work the cache saves.
func reportCache(w *os.File, before, after *cacheCounters) {
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	coalesced := after.Coalesced - before.Coalesced
	evictions := after.Evictions - before.Evictions
	total := hits + misses + coalesced
	if total == 0 {
		fmt.Fprintln(w, "cache              no cached-path requests (limit set, or bindings unbindable)")
		return
	}
	fmt.Fprintf(w, "cache              %d hits, %d misses, %d coalesced, %d evictions — hit ratio %.1f%%\n",
		hits, misses, coalesced, evictions, 100*float64(hits+coalesced)/float64(total))
}

// workerReport mirrors one row of the coordinator's /v1/stats workers
// section (coord.WorkerReport on the wire).
type workerReport struct {
	URL        string `json:"url"`
	Requests   uint64 `json:"requests"`
	Errors     uint64 `json:"errors"`
	FirstTuple struct {
		Count uint64 `json:"count"`
		P50us int64  `json:"p50_us"`
		P99us int64  `json:"p99_us"`
	} `json:"first_tuple"`
}

// coordWorkers fetches the per-worker breakdown from a coordinator's
// GET /v1/stats.
func coordWorkers(ctx context.Context, base string) ([]workerReport, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s", resp.Status)
	}
	var body struct {
		Workers []workerReport `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	if body.Workers == nil {
		return nil, fmt.Errorf("no workers section in /v1/stats — is %s a cqcoord coordinator?", base)
	}
	return body.Workers, nil
}

// reportWorkers prints the coordinator's per-worker view of the run.
// Request and error counts are deltas across the run; the first-tuple
// percentiles come from the coordinator's cumulative histogram, so they
// are labelled as such (histograms cannot be subtracted).
func reportWorkers(w *os.File, before, after []workerReport) {
	prev := make(map[string]workerReport, len(before))
	for _, r := range before {
		prev[r.URL] = r
	}
	fmt.Fprintln(w, "per-worker (coordinator view; latency cumulative since worker joined):")
	for _, r := range after {
		p := prev[r.URL]
		fmt.Fprintf(w, "  %-28s %6d reqs  %4d errors  first-tuple p50 %v p99 %v (%d streams)\n",
			r.URL, r.Requests-p.Requests, r.Errors-p.Errors,
			time.Duration(r.FirstTuple.P50us)*time.Microsecond,
			time.Duration(r.FirstTuple.P99us)*time.Microsecond,
			r.FirstTuple.Count)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cqload:", err)
	os.Exit(1)
}
