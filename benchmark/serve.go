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
	"sync/atomic"
	"time"

	"cqrep/internal/coord"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// distShards is the shard count of every sharded compile and the worker
// count of the distributed tier.
const distShards = 3

// A stack is one serving tier ready for requests: a single node, or a
// coordinator in front of joined workers. Everything runs in this process
// but talks over real loopback TCP.
type stack struct {
	url           string   // where clients send queries
	workers       []string // worker base URLs (distributed tier only)
	snapshotBytes int64    // bytes of every snapshot file the tier loaded
	built         *core.Representation
	closers       []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// listen puts h on a loopback port.
func (s *stack) listen(h http.Handler) string {
	ts := httptest.NewServer(h)
	s.closers = append(s.closers, ts.Close)
	return ts.URL
}

// compileTo builds view over db and saves the snapshot at path.
func compileTo(path string, view *cq.View, db *relation.Database, opts ...core.Option) (*core.Representation, int64, error) {
	rep, err := core.Build(view, db, opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("compile %s: %w", view.Name, err)
	}
	n, err := saveSnapshot(rep, path)
	return rep, n, err
}

func saveSnapshot(rep *core.Representation, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := rep.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("save %s: %w", path, err)
	}
	return n, nil
}

func loadSnapshot(path string) (*core.Representation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadRepresentation(f)
}

// nodeOptions is how a node is configured on every workload: defaults,
// with the result cache off — a hit replays stored bytes and would bypass
// every layer the benchmark exists to price.
func nodeOptions() httpserve.Options { return httpserve.Options{CacheBytes: 0} }

// setupNode is compile → snapshot → load → serve for a single node.
func setupNode(dir string, fx *fixture) (*stack, error) {
	s := &stack{}
	path := filepath.Join(dir, "view.cqs")
	rep, n, err := compileTo(path, fx.parsedView(), fx.db, fx.coreOpts()...)
	if err != nil {
		return nil, err
	}
	s.built, s.snapshotBytes = rep, n
	h, err := httpserve.New([]string{path}, nodeOptions())
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, h.Close)
	s.url = s.listen(h)
	return s, nil
}

// setupDist compiles the view and its all-free scatter view three ways
// sharded, starts a coordinator over both snapshots, and joins three
// workers, which fetch their shards from it over HTTP.
func setupDist(dir string, fx *fixture) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	viewPath := filepath.Join(dir, "view.cqs")
	rep, n, err := compileTo(viewPath, fx.parsedView(), fx.db, fx.coreOpts(core.WithShards(distShards))...)
	if err != nil {
		return nil, err
	}
	s.built, s.snapshotBytes = rep, n
	scatterPath := filepath.Join(dir, "scatter.cqs")
	_, n, err = compileTo(scatterPath, fx.parsedScatter(), fx.db,
		core.WithStrategy(core.MaterializedStrategy), core.WithShards(distShards))
	if err != nil {
		return nil, err
	}
	s.snapshotBytes += n

	// The coordinator needs its own URL before it exists (workers fetch
	// shard files from it), so the listener starts first and forwards.
	var cptr atomic.Pointer[coord.Coordinator]
	s.url = s.listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := cptr.Load(); c != nil {
			c.ServeHTTP(w, r)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	}))
	co, err := coord.New([]string{viewPath, scatterPath}, coord.Options{
		SelfURL: s.url, SpoolDir: filepath.Join(dir, "coord-spool"), CacheBytes: 0,
	})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, co.Close, http.DefaultTransport.(*http.Transport).CloseIdleConnections)
	cptr.Store(co)
	for i := 0; i < distShards; i++ {
		opts := nodeOptions()
		opts.Admin = true
		opts.SpoolDir = filepath.Join(dir, fmt.Sprintf("worker%d", i))
		wh, err := httpserve.NewSpecs(nil, opts)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, wh.Close)
		wurl := s.listen(wh)
		s.workers = append(s.workers, wurl)
		if err := co.Join(context.Background(), wurl); err != nil {
			return nil, fmt.Errorf("worker %d join: %w", i, err)
		}
	}
	return s, nil
}

// shardOwners asks the coordinator which worker serves each shard of view.
func shardOwners(base, view string) ([]string, error) {
	resp, err := http.Get(base + "/v1/map")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Owners map[string][]string `json:"owners"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /v1/map: %w", err)
	}
	owners := body.Owners[view]
	if len(owners) != distShards {
		return nil, fmt.Errorf("/v1/map lists %d owners for %s, want %d", len(owners), view, distShards)
	}
	return owners, nil
}

// streamCounts is the slice of /v1/stats the benchmark reads: how streams
// ended. Nodes and coordinators report it under the same keys.
type streamCounts struct {
	Complete uint64 `json:"streams_complete"`
	Errored  uint64 `json:"streams_errored"`
	Aborted  uint64 `json:"streams_aborted"`
}

func fetchStreamCounts(base string) (streamCounts, error) {
	var sc streamCounts
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sc, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&sc)
	return sc, err
}

// A call is one access request as a client sends it, with the number of
// answers the in-process enumeration gave for it.
type call struct {
	view string
	opts httpserve.QueryOptions
	want int
}

// encodeTuples is the byte form two enumerations are compared in.
func encodeTuples(dst []byte, ts []relation.Tuple) []byte {
	for _, t := range ts {
		dst = t.AppendEncode(dst)
	}
	return dst
}

// nodeCalls turns the fixture's requests into calls on view name, with the
// answer counts taken from oracle, the snapshot loaded back in-process.
func nodeCalls(fx *fixture, oracle *core.Representation) ([]call, error) {
	bound := oracle.BoundNames()
	calls := make([]call, len(fx.reqs))
	for i, vb := range fx.reqs {
		it := oracle.Query(vb)
		_, n := drain(it, time.Time{})
		if err := core.IterErr(it); err != nil {
			return nil, fmt.Errorf("in-process enumeration of %v: %w", vb, err)
		}
		calls[i] = call{
			view: oracle.View().Name,
			opts: httpserve.QueryOptions{Bindings: bindings(bound, vb), Format: fx.format},
			want: n,
		}
	}
	return calls, nil
}

// scatterCall is the all-free enumeration of the scatter view.
func scatterCall(fx *fixture, oracle *core.Representation) (call, error) {
	it := oracle.Query(nil)
	_, n := drain(it, time.Time{})
	if err := core.IterErr(it); err != nil {
		return call{}, fmt.Errorf("in-process enumeration of %s: %w", fx.scatter, err)
	}
	return call{view: oracle.View().Name, opts: httpserve.QueryOptions{Format: fx.format}, want: n}, nil
}

// verifyCalls checks that every call in sample streams, over the wire,
// exactly the bytes the in-process enumeration of its view produces.
func verifyCalls(base string, calls []call, sample []int, oracles map[string]*core.Representation) error {
	cl := &httpserve.Client{Base: base}
	var got, want []byte
	for _, i := range sample {
		c := calls[i]
		it, err := oracles[c.view].QueryArgs(c.opts.Bindings)
		if err != nil {
			return err
		}
		want = encodeTuples(want[:0], core.Drain(it))
		if err := core.IterErr(it); err != nil {
			return fmt.Errorf("in-process enumeration of %s %v: %w", c.view, c.opts.Bindings, err)
		}
		res, err := cl.QueryOpts(context.Background(), c.view, c.opts)
		if err != nil {
			return fmt.Errorf("%s %v over the wire: %w", c.view, c.opts.Bindings, err)
		}
		got = encodeTuples(got[:0], res.Tuples)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s %v: the %d tuples streamed over the wire are not the in-process enumeration", c.view, c.opts.Bindings, len(res.Tuples))
		}
	}
	return nil
}

// rawBody posts body as call c and returns the encoded response exactly as
// the server sends it, for the replay server of the client-floor probe.
func rawBody(base string, c call, body []byte) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query/"+c.view, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", c.opts.Format.MediaType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: %s", c.view, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	return b, resp.Header.Get("Content-Type"), err
}
