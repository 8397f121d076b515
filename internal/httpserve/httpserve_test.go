package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// compileAndSave builds the view over db and writes its snapshot to a
// fresh file under dir, returning the path and the in-process
// representation (the trusted baseline for byte-identity checks).
func compileAndSave(t testing.TB, dir, name string, view *cq.View, db *relation.Database, opts ...core.Option) (string, *core.Representation) {
	t.Helper()
	rep, err := core.Build(view, db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
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
	return path, rep
}

// triangleFixture is the E1 mutual-friend workload at test scale.
func triangleFixture(t testing.TB, seed int64) (*cq.View, *relation.Database) {
	t.Helper()
	// Dense on purpose: 20 nodes with ~300 undirected edges is close to
	// complete, so sampled (x, z) bindings nearly always have witnesses.
	return cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), workload.TriangleDB(seed, 20, 300)
}

// encodeAll flattens tuples into comparable bytes.
func encodeAll(ts []relation.Tuple) []byte {
	var buf bytes.Buffer
	for _, t := range ts {
		buf.Write(t.AppendEncode(nil))
	}
	return buf.Bytes()
}

// sampleBindings draws k bound valuations from the instance's active
// domains, plus one guaranteed miss.
func sampleBindings(rep *core.Representation, k int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	inst := rep.Instance()
	out := make([]relation.Tuple, 0, k+1)
	for i := 0; i < k; i++ {
		vb := make(relation.Tuple, len(inst.NV.Bound))
		for j := range vb {
			dom := inst.BoundDomain(j)
			if len(dom) == 0 {
				vb[j] = 0
				continue
			}
			vb[j] = dom[rng.Intn(len(dom))]
		}
		out = append(out, vb)
	}
	miss := make(relation.Tuple, len(inst.NV.Bound))
	for j := range miss {
		miss[j] = relation.Value(1 << 40) // far outside every generated domain
	}
	return append(out, miss)
}

// bindByName renders a positional valuation as the wire's name→value map.
func bindByName(rep *core.Representation, vb relation.Tuple) map[string]relation.Value {
	names := rep.BoundNames()
	m := make(map[string]relation.Value, len(names))
	for i, n := range names {
		m[n] = vb[i]
	}
	return m
}

// TestQueryStreamsByteIdentical is the acceptance path: compile →
// snapshot → cqserve → streamed NDJSON results decode byte-for-byte
// identical to the in-process Representation for the same bindings,
// across every persistable strategy including a sharded build.
func TestQueryStreamsByteIdentical(t *testing.T) {
	view, db := triangleFixture(t, 7)
	cases := []struct {
		name string
		opts []core.Option
	}{
		{"primitive", []core.Option{core.WithStrategy(core.PrimitiveStrategy), core.WithTau(4)}},
		{"decomposition", []core.Option{core.WithStrategy(core.DecompositionStrategy)}},
		{"materialized", []core.Option{core.WithStrategy(core.MaterializedStrategy)}},
		{"sharded", []core.Option{core.WithStrategy(core.PrimitiveStrategy), core.WithTau(4), core.WithShards(3)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db, c.opts...)
			h, err := New([]string{path}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			ts := httptest.NewServer(h)
			defer ts.Close()
			cl := &Client{Base: ts.URL}

			for _, vb := range sampleBindings(rep, 12, 99) {
				res, err := cl.Query(context.Background(), "V", bindByName(rep, vb), 0)
				if err != nil {
					t.Fatalf("query %v: %v", vb, err)
				}
				want := core.Drain(rep.Query(vb))
				if !bytes.Equal(encodeAll(res.Tuples), encodeAll(want)) {
					t.Fatalf("binding %v: HTTP stream diverges from in-process enumeration:\n got %d tuples\nwant %d tuples", vb, len(res.Tuples), len(want))
				}
			}
		})
	}
}

func TestQueryLimit(t *testing.T) {
	view, db := triangleFixture(t, 11)
	path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	// Find a binding with several answers.
	for _, vb := range sampleBindings(rep, 20, 3) {
		want := core.Drain(rep.Query(vb))
		if len(want) < 3 {
			continue
		}
		res, err := cl.Query(context.Background(), "V", bindByName(rep, vb), 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 2 {
			t.Fatalf("limit 2 returned %d tuples", len(res.Tuples))
		}
		if !bytes.Equal(encodeAll(res.Tuples), encodeAll(want[:2])) {
			t.Fatalf("limited stream is not a prefix of the enumeration")
		}
		return
	}
	t.Fatal("no binding with at least 3 answers found")
}

func TestViewsAndStats(t *testing.T) {
	dir := t.TempDir()
	view, db := triangleFixture(t, 13)
	p1, rep := compileAndSave(t, dir, "v.cqs", view, db, core.WithShards(2))
	p2, _ := compileAndSave(t, dir, "w.cqs", cq.MustParse("W[bf](a, b) :- R(a, b)"), db)
	h, err := New([]string{p1, p2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	views, err := cl.Views(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].Name != "V" || views[1].Name != "W" {
		t.Fatalf("views = %+v", views)
	}
	if views[0].Shards != 2 || views[0].Strategy == "" || len(views[0].Bound) != 2 || len(views[0].Free) != 1 {
		t.Fatalf("V info = %+v", views[0])
	}
	if views[0].BaseTuples != baseTuples(rep) {
		t.Fatalf("BaseTuples = %d, want %d", views[0].BaseTuples, baseTuples(rep))
	}

	// Issue a few queries — at least one with a non-empty answer so the
	// first-tuple latency histogram records something — then read the
	// counters.
	answered := false
	for _, vb := range sampleBindings(rep, 8, 5) {
		if _, err := cl.Query(context.Background(), "V", bindByName(rep, vb), 0); err != nil {
			t.Fatal(err)
		}
		if len(core.Drain(rep.Query(vb))) > 0 {
			answered = true
		}
	}
	if !answered {
		t.Fatal("fixture produced no answered binding; densify the graph")
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 3 {
		t.Fatalf("stats requests = %d, want >= 3", st.Requests)
	}
	if len(st.Views) != 2 || st.Views[0].Name != "V" || st.Views[0].Shards != 2 {
		t.Fatalf("stats views = %+v", st.Views)
	}
	if st.Views[0].Requests < 3 {
		t.Fatalf("per-view requests = %d, want >= 3", st.Views[0].Requests)
	}
	if st.FirstTuple.Count == 0 || st.FirstTuple.P99us < st.FirstTuple.P50us {
		t.Fatalf("first-tuple latency summary = %+v", st.FirstTuple)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func TestBadRequests(t *testing.T) {
	view, db := triangleFixture(t, 17)
	path, _ := compileAndSave(t, t.TempDir(), "v.cqs", view, db)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()

	post := func(url, body string) *http.Response {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(ts.URL+"/v1/query/Nope", `{}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown view: status %d, want 404", resp.StatusCode)
	}
	if resp := post(ts.URL+"/v1/query/V", `{"bindings": {"nope": 1}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown binding name: status %d, want 400", resp.StatusCode)
	}
	if resp := post(ts.URL+"/v1/query/V", `{"bindings": {"x": 1}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing binding: status %d, want 400", resp.StatusCode)
	}
	if resp := post(ts.URL+"/v1/query/V", `{"bindings": {"x": 1.5, "z": 2}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fractional value: status %d, want 400", resp.StatusCode)
	}
	if resp := post(ts.URL+"/v1/query/V", `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/query/V")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET query: status %d, want 405", resp.StatusCode)
	}
}

func TestReloadSwapsRegistry(t *testing.T) {
	dir := t.TempDir()
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	mkdb := func(marker relation.Value) *relation.Database {
		db := relation.NewDatabase()
		r := relation.NewRelation("R", 2)
		r.MustInsert(1, marker)
		db.Add(r)
		return db
	}
	path, _ := compileAndSave(t, dir, "v.cqs", view, mkdb(100))
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	args := map[string]relation.Value{"x": 1}
	res, err := cl.Query(context.Background(), "V", args, 0)
	if err != nil || len(res.Tuples) != 1 || res.Tuples[0][0] != 100 {
		t.Fatalf("pre-reload query = %v, %v", res.Tuples, err)
	}

	// Overwrite the snapshot file and hot-reload.
	rep2, err := core.Build(view, mkdb(200))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "v.cqs.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep2.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	gen, err := cl.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	res, err = cl.Query(context.Background(), "V", args, 0)
	if err != nil || len(res.Tuples) != 1 || res.Tuples[0][0] != 200 {
		t.Fatalf("post-reload query = %v, %v", res.Tuples, err)
	}

	// A reload against a now-corrupt file keeps the old registry serving.
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Reload(context.Background()); err == nil {
		t.Fatal("reload of a corrupt snapshot should fail")
	}
	res, err = cl.Query(context.Background(), "V", args, 0)
	if err != nil || len(res.Tuples) != 1 || res.Tuples[0][0] != 200 {
		t.Fatalf("query after failed reload = %v, %v (old registry should keep serving)", res.Tuples, err)
	}
}

// failingSource wraps a representation but breaks its enumerations after
// `after` tuples — the snapshot-backed-source-dies-mid-stream scenario
// (after = 0 models a source that cannot produce even its first tuple).
type failingSource struct {
	rep   *core.Representation
	err   error
	after int
}

func (s *failingSource) QueryBlocks(ctx context.Context, vb relation.Tuple) core.BlockIterator {
	return &breakingBlocks{inner: s.rep.QueryBlocks(ctx, vb), err: s.err, left: s.after}
}

// breakingBlocks lends out the inner stream's blocks until `left` tuples
// have gone by, then ends with err as its terminal error.
type breakingBlocks struct {
	inner core.BlockIterator
	err   error
	left  int
}

func (b *breakingBlocks) NextBlock(max int) []relation.Tuple {
	blk := b.inner.NextBlock(min(max, b.left))
	b.left -= len(blk)
	return blk
}

func (b *breakingBlocks) Err() error {
	if b.left == 0 {
		return b.err
	}
	return core.IterErr(b.inner)
}

// TestStreamTerminalErrorObject checks the wire contract for mid-stream
// failures: results already produced are delivered, then one JSON object
// line carries the error so the client cannot mistake truncation for
// completion.
func TestStreamTerminalErrorObject(t *testing.T) {
	view, db := triangleFixture(t, 23)
	path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Swap the healthy representation for a breaking source.
	boom := errors.New("page read failed")
	reg := h.reg.Load()
	entry := reg.views["V"]
	entry.src = &failingSource{rep: rep, err: boom, after: 2}

	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	for _, vb := range sampleBindings(rep, 20, 31) {
		if len(core.Drain(rep.Query(vb))) < 3 {
			continue
		}
		res, err := cl.Query(context.Background(), "V", bindByName(rep, vb), 0)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("error = %v, want RemoteError carrying the terminal object", err)
		}
		if !strings.Contains(re.Message, "page read failed") {
			t.Fatalf("terminal error message = %q", re.Message)
		}
		if len(res.Tuples) != 2 {
			t.Fatalf("tuples before the failure = %d, want 2", len(res.Tuples))
		}
		return
	}
	t.Fatal("no binding with at least 3 answers found")
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("New with no paths should fail")
	}
	if _, err := New([]string{filepath.Join(t.TempDir(), "missing.cqs")}, Options{}); err == nil {
		t.Fatal("New with a missing snapshot should fail")
	}
	dir := t.TempDir()
	view, db := triangleFixture(t, 41)
	p1, _ := compileAndSave(t, dir, "a.cqs", view, db)
	p2, _ := compileAndSave(t, dir, "b.cqs", view, db)
	if _, err := New([]string{p1, p2}, Options{}); err == nil || !strings.Contains(err.Error(), "duplicate view") {
		t.Fatalf("duplicate view error = %v", err)
	}
}

func TestCloseRejectsNewRequests(t *testing.T) {
	view, db := triangleFixture(t, 43)
	path, _ := compileAndSave(t, t.TempDir(), "v.cqs", view, db)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	h.Close()
	h.Close() // idempotent

	resp, err := http.Post(ts.URL+"/v1/query/V", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after Close: status %d, want 503", resp.StatusCode)
	}
	if _, err := h.Reload(); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Reload after Close = %v, want ErrClosed", err)
	}
}

// TestStreamErrorBeforeFirstTuple pins the status-code contract for a
// source that fails before producing anything: nothing has been
// streamed, so the request must fail with a real 5xx instead of a 200
// whose only content is the terminal error object.
func TestStreamErrorBeforeFirstTuple(t *testing.T) {
	view, db := triangleFixture(t, 29)
	path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	boom := errors.New("page read failed")
	entry := h.reg.Load().views["V"]
	entry.src = &failingSource{rep: rep, err: boom, after: 0}

	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	vb := sampleBindings(rep, 1, 3)[0]
	_, err = cl.Query(context.Background(), "V", bindByName(rep, vb), 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want RemoteError", err)
	}
	if re.Status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (no byte was streamed yet)", re.Status)
	}
	if !strings.Contains(re.Message, "page read failed") {
		t.Fatalf("message = %q", re.Message)
	}
}

// TestMmapUndecodableAnswers500 pins where an mmap-loaded snapshot's
// payload failure surfaces: the front binds through the view, which the
// open already decoded, so the damage shows when the request opens its
// enumeration — before any byte is streamed, as a 500 naming
// ErrBadSnapshot.
func TestMmapUndecodableAnswers500(t *testing.T) {
	view, db := triangleFixture(t, 31)
	path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last payload byte sits just before the 4-byte checksum: the
	// header and the stored view still decode, the checksum does not match.
	raw[len(raw)-5] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := New([]string{path}, Options{Mmap: true})
	if err != nil {
		t.Fatalf("an mmap load defers payload checks, got %v", err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()

	vb := sampleBindings(rep, 1, 5)[0]
	_, err = (&Client{Base: ts.URL}).Query(context.Background(), "V", bindByName(rep, vb), 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want RemoteError", err)
	}
	if re.Status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", re.Status)
	}
	if !strings.Contains(re.Message, core.ErrBadSnapshot.Error()) {
		t.Fatalf("message = %q, want the ErrBadSnapshot text", re.Message)
	}
}

// TestMaterializedServingBuildsNoInstance: a node serving materialized
// snapshots — unsharded and sharded, loaded eagerly and through mmap —
// answers every request of the view's bound domains and a /v1/views call
// without ever building the join instance; a materialized output reads
// only its buckets, and /v1/views counts base tuples off the normalized
// view.
func TestMaterializedServingBuildsNoInstance(t *testing.T) {
	dir := t.TempDir()
	view, db := triangleFixture(t, 21)
	p1, ref := compileAndSave(t, dir, "v.cqs", view, db, core.WithStrategy(core.MaterializedStrategy))
	p2, _ := compileAndSave(t, dir, "w.cqs", cq.MustParse("W[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), db,
		core.WithStrategy(core.MaterializedStrategy), core.WithShards(3))
	inst := ref.Instance()
	for _, mmap := range []bool{false, true} {
		h, err := New([]string{p1, p2}, Options{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		cl := &Client{Base: ts.URL}
		for _, name := range []string{"V", "W"} {
			for _, x := range inst.BoundDomain(0) {
				for _, z := range inst.BoundDomain(1) {
					vb := relation.Tuple{x, z}
					got, err := cl.Query(context.Background(), name, bindByName(ref, vb), 0)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(encodeAll(got.Tuples), encodeAll(core.Drain(ref.Query(vb)))) {
						t.Fatalf("mmap=%v %s %v: served answers differ from the build", mmap, name, vb)
					}
				}
			}
		}
		views, err := cl.Views(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(views) != 2 || views[0].BaseTuples != db.Size() || views[1].BaseTuples != db.Size() {
			t.Fatalf("mmap=%v: views = %+v, want %d base tuples each", mmap, views, db.Size())
		}
		// Closing the server waits for every handler, so the hook reads
		// what serving left behind.
		ts.Close()
		for name, e := range h.reg.Load().views {
			if core.InstanceBuiltForTest(e.rep) {
				t.Errorf("mmap=%v: serving materialized view %s built the join instance", mmap, name)
			}
		}
		h.Close()
	}
}
