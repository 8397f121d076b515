package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// windowSlices cuts every measurement window into equal slices. A metric
// is computed per slice and the median slice is what gets reported, so one
// slice disturbed by something else on the machine does not move the
// number, and the quartiles across slices record the spread inside a run.
const windowSlices = 5

// A recorder accumulates what one load goroutine observed during the
// window [start, start+window): work done per slice, and latency
// histograms per slice. Each goroutine owns one; they are merged after the
// goroutines have been waited for.
type recorder struct {
	start  time.Time
	window time.Duration

	tuples    [windowSlices]float64
	requests  [windowSlices]float64
	first     [windowSlices]hist // request write → first tuple decoded
	total     [windowSlices]hist // request write → terminal frame / EOF
	attempted int
	failed    int
	firstErr  error
}

func newRecorder(start time.Time, window time.Duration) *recorder {
	return &recorder{start: start, window: window}
}

// sliceOf is the slice of the window [start, start+window) that t falls
// in; instants outside it count towards the nearest slice.
func sliceOf(start time.Time, window time.Duration, t time.Time) int {
	i := int(float64(t.Sub(start)) / float64(window) * windowSlices)
	return min(max(i, 0), windowSlices-1)
}

// credit adds amount of work done over [t0, t1] to the slices of the window
// [start, start+window) it overlaps, in proportion to the overlap: a
// half-second scatter enumeration does not land whole in whichever slice it
// happened to finish in. The part outside the window — the warm-up before
// it, the tail of an operation still running at its end — is not counted.
func credit(slices *[windowSlices]float64, start time.Time, window time.Duration, t0, t1 time.Time, amount float64) {
	from, to := float64(t0.Sub(start)), float64(t1.Sub(start))
	sliceDur := float64(window) / windowSlices
	for i := range slices {
		overlap := min(to, float64(i+1)*sliceDur) - max(from, float64(i)*sliceDur)
		if overlap <= 0 {
			continue
		}
		share := 1.0
		if to > from {
			share = overlap / (to - from)
		}
		slices[i] += share * amount
	}
}

// done records one finished request that ran over [t0, t1]: its work is
// credited to the slices it overlaps, its latencies go to the slice it
// finished in.
func (r *recorder) done(t0, t1 time.Time, first time.Duration, tuples int, err error) {
	if t1.Before(r.start) {
		return // warm-up
	}
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	credit(&r.tuples, r.start, r.window, t0, t1, float64(tuples))
	credit(&r.requests, r.start, r.window, t0, t1, 1)
	s := sliceOf(r.start, r.window, t1)
	r.total[s].add(t1.Sub(t0))
	if tuples > 0 {
		r.first[s].add(first)
	}
}

func (r *recorder) merge(o *recorder) {
	for i := 0; i < windowSlices; i++ {
		r.tuples[i] += o.tuples[i]
		r.requests[i] += o.requests[i]
		r.first[i].merge(&o.first[i])
		r.total[i].merge(&o.total[i])
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// A measure is one reported number with what stands behind it: the value
// over the whole window, the value in each slice, and the sample count.
// Value, the reported number, is the median slice. Unit is stamped from the
// metric tables in spec.go when the run is complete.
type measure struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Whole   float64   `json:"whole_window,omitempty"`
	Slices  []float64 `json:"slices,omitempty"`
	Samples uint64    `json:"samples,omitempty"`
}

func exact(v float64) measure { return measure{Value: v} }

// rate turns per-slice work into a per-second measure.
func rate(work [windowSlices]float64, window time.Duration) measure {
	var m measure
	sliceSeconds := window.Seconds() / windowSlices
	var sum float64
	for _, w := range work {
		m.Slices = append(m.Slices, w/sliceSeconds)
		sum += w
	}
	m.Whole = sum / window.Seconds()
	m.Value = median(m.Slices)
	m.Samples = uint64(math.Round(sum))
	return m
}

// percentile reports the q-quantile of per-slice histograms, scaled from
// nanoseconds by div. Slices without samples are left out of the median.
func percentile(hs *[windowSlices]hist, q, div float64) measure {
	var m measure
	var all hist
	for i := range hs {
		all.merge(&hs[i])
		if hs[i].n > 0 {
			m.Slices = append(m.Slices, hs[i].quantile(q)/div)
		}
	}
	m.Whole = all.quantile(q) / div
	m.Value = median(m.Slices)
	m.Samples = all.n
	return m
}

// servingMetrics are the end-to-end numbers a recorder yields; every
// workload reports all of them.
func (r *recorder) servingMetrics() map[string]measure {
	return map[string]measure{
		"tuples_per_s":       rate(r.tuples, r.window),
		"requests_per_s":     rate(r.requests, r.window),
		"first_tuple_p50_us": percentile(&r.first, 0.50, 1e3),
		"first_tuple_p99_us": percentile(&r.first, 0.99, 1e3),
		"request_p50_us":     percentile(&r.total, 0.50, 1e3),
		"request_p99_us":     percentile(&r.total, 0.99, 1e3),
	}
}

// warmup is the share of a window run, unrecorded, before it: connections
// open, pools fill and the runtime sizes its heap before anything counts.
const warmupShare = 0.1

// runClients drives a closed loop: clients goroutines, each with one
// keep-alive connection, each sending its next request when the previous
// stream has ended. Client c takes calls c, c+clients, … of the cycle. A
// stream that errors, ends without its terminal, or carries another
// number of tuples than the in-process enumeration gave is a failure.
// tr is nil except in the traced pass, which runs one client and brackets
// its requests and round trips in spans.
func runClients(base string, calls []call, clients int, window time.Duration, tr *tracer) *recorder {
	warm := time.Duration(float64(window) * warmupShare)
	start := time.Now().Add(warm)
	end := start.Add(window)
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		recs[c] = newRecorder(start, window)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := &http.Transport{MaxIdleConnsPerHost: 1}
			defer conn.CloseIdleConnections()
			var rt http.RoundTripper = conn
			if tr != nil {
				rt = tr.transport(rt)
			}
			cl := &httpserve.Client{Base: base, HTTP: &http.Client{Transport: rt}}
			for i := c; ; i += clients {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				k := &calls[i%len(calls)]
				if tr != nil {
					tr.current.Store(int64(i))
				}
				first, n, err := drainCall(cl, k)
				t1 := time.Now()
				recs[c].done(t0, t1, first, n, err)
				if tr != nil {
					tr.record("client.request", "", int64(i), t0, t1)
					tr.record("client.first_tuple", "client.request", int64(i), t0, t0.Add(first))
				}
			}
		}(c)
	}
	wg.Wait()
	all := recs[0]
	for _, r := range recs[1:] {
		all.merge(r)
	}
	return all
}

// drain pulls a stream empty and reports when, counted from t0, its first
// tuple arrived and how many there were. Both the wire client's streams and
// the in-process iterators have this Next.
func drain(it interface {
	Next() (relation.Tuple, bool)
}, t0 time.Time) (first time.Duration, n int) {
	for {
		if _, ok := it.Next(); !ok {
			return first, n
		}
		if n == 0 {
			first = time.Since(t0)
		}
		n++
	}
}

// drainCall sends one call and drains its stream, timing the first tuple.
func drainCall(cl *httpserve.Client, k *call) (first time.Duration, n int, err error) {
	t0 := time.Now()
	st, err := cl.Open(context.Background(), k.view, k.opts)
	if err != nil {
		return 0, 0, err
	}
	first, n = drain(st, t0)
	err = st.Err()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil && n != k.want {
		err = fmt.Errorf("%s %v: stream carried %d tuples, in-process enumeration gives %d", k.view, k.opts.Bindings, n, k.want)
	}
	return first, n, err
}
