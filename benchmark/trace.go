package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's own
// files around the call — nothing inside the program is edited. Spans of
// one request share Req; Parent names the layer that caused the call.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept verbatim; the per-layer totals below keep
// counting past it.
const maxSpans = 1 << 16

// A tracer keeps spans in memory and writes them out when the run ends.
// Only the traced pass creates one; the end-to-end windows run without any
// span recording at all.
type tracer struct {
	t0 time.Time
	// current is the request the single traced client has in flight, for
	// spans recorded where no request header reaches (a worker behind the
	// coordinator).
	current atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
	totals  map[string]*layerTotal
}

type layerTotal struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Count  int     `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	// SelfNs is the mean span minus the mean time its child layers account
	// for per span of this layer.
	SelfNs float64 `json:"self_ns"`
	sumNs  int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans), totals: map[string]*layerTotal{}}
}

func (t *tracer) record(name, parent string, req int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := t.totals[name]
	if lt == nil {
		lt = &layerTotal{Name: name, Parent: parent}
		t.totals[name] = lt
	}
	lt.Count++
	lt.sumNs += int64(end.Sub(start))
	if len(t.spans) == maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name, parent, req, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
}

// reqHeader carries the request id from the traced client to the handler
// it reaches directly.
const reqHeader = "X-Bench-Req"

// transport brackets each round trip (request written → response headers
// read) in a span and stamps the request id on it.
func (t *tracer) transport(rt http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		id := t.current.Load()
		r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		start := time.Now()
		resp, err := rt.RoundTrip(r)
		t.record("client.roundtrip", "client.request", id, start, time.Now())
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// handler brackets every call into h in a span named name.
func (t *tracer) handler(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			id = t.current.Load()
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, parent, id, start, time.Now())
	})
}

// write dumps the spans and the per-layer totals to path.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	layers := make([]*layerTotal, 0, len(t.totals))
	for _, lt := range t.totals {
		lt.MeanNs = float64(lt.sumNs) / float64(lt.Count)
		lt.SelfNs = lt.MeanNs
		layers = append(layers, lt)
	}
	for _, child := range layers {
		if p := t.totals[child.Parent]; p != nil {
			p.SelfNs -= float64(child.sumNs) / float64(p.Count)
		}
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	body, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "layers": layers, "spans": t.spans, "dropped_spans": t.dropped,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o666)
}
