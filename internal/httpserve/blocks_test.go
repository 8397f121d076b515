package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// writeBlocks feeds tuples to sw the way the handler does — each block as
// large as Room allows — and ends the stream.
func writeBlocks(t testing.TB, sw *StreamWriter, tuples []relation.Tuple) {
	t.Helper()
	for len(tuples) > 0 {
		n := min(sw.Room(), len(tuples))
		if err := sw.Block(tuples[:n]); err != nil {
			t.Fatal(err)
		}
		tuples = tuples[n:]
	}
	if err := sw.End(); err != nil {
		t.Fatal(err)
	}
}

// encodeBinaryStream renders tuples as a complete binary stream exactly as
// a server would ship it: first tuple alone, then frames of flushBatch.
func encodeBinaryStream(t testing.TB, tuples []relation.Tuple, arity, flushBatch int) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeBlocks(t, NewStreamWriter(rec, FormatBinary, arity, flushBatch), tuples)
	return rec.Body.Bytes()
}

func scanTuples(n int) []relation.Tuple {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{relation.Value(i), relation.Value(-i), relation.Value(int64(i) << 40)}
	}
	return tuples
}

// TestBinaryStreamTuplesAreOwned is the client half of the ownership
// contract: every tuple Stream.Next returns is the caller's to keep. All
// tuples of a multi-frame stream are retained and compared only after the
// last frame — so one that aliased the reused frame buffer, or a slab the
// reader recycled, would have been overwritten by then — and appending to
// a tuple must not reach the neighbour it shares a slab with.
func TestBinaryStreamTuplesAreOwned(t *testing.T) {
	want := scanTuples(100)
	body := encodeBinaryStream(t, want, 3, 8) // frames of 1, 8, 8, ...
	dec, err := newBinaryReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	st := &binaryStream{dec: dec, body: io.NopCloser(bytes.NewReader(nil))}
	defer st.Close()
	var got []relation.Tuple
	for {
		tup, ok := st.Next()
		if !ok {
			break
		}
		got = append(got, tup)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("retained tuple %d = %v after the last frame, want %v", i, got[i], want[i])
		}
	}
	// got[1] and got[2] share the second frame's slab.
	_ = append(got[1], 777)
	if !got[2].Equal(want[2]) {
		t.Fatalf("append on tuple 1 overwrote its neighbour: %v, want %v", got[2], want[2])
	}
}

// TestBinaryStreamMixedReadsKeepNextOwned interleaves the two read paths
// on one reader: each frame is opened by NextRows, which lends its first
// row still encoded, and finished by Next, which decodes the rest into a
// slab of its own. Every tuple kept from Next must still read right once
// later frames have been lent from the same read buffer, and every lent
// row must decode to the tuple it encodes.
func TestBinaryStreamMixedReadsKeepNextOwned(t *testing.T) {
	const batch = 8
	want := scanTuples(100)
	dec, err := newBinaryReader(bytes.NewReader(encodeBinaryStream(t, want, 3, batch)))
	if err != nil {
		t.Fatal(err)
	}
	kept := map[int]relation.Tuple{}
	for pos := 0; pos < len(want); pos++ {
		if pos == 0 || (pos-1)%batch == 0 { // the first tuple of a frame
			rows := dec.NextRows(1)
			if rows.N != 1 || rows.Arity != 3 || !rows.DecodeRow(0, make(relation.Tuple, 3)).Equal(want[pos]) {
				t.Fatalf("NextRows at %d lent %+v, want [%v]", pos, rows, want[pos])
			}
			continue
		}
		tup, ok := dec.Next()
		if !ok {
			t.Fatalf("stream ended at %d: %v", pos, dec.Err())
		}
		kept[pos] = tup
	}
	if _, ok := dec.Next(); ok || dec.Err() != nil {
		t.Fatalf("want a clean end after %d tuples, got err %v", len(want), dec.Err())
	}
	for i, tup := range kept {
		if !tup.Equal(want[i]) {
			t.Fatalf("tuple %d from Next = %v after later lent frames, want %v", i, tup, want[i])
		}
	}
}

// TestBlockAndTupleDeliveryByteIdentical holds StreamWriter's two entry
// points to one wire image: a stream fed block by block at the size Room
// asks for is byte-identical to the same tuples fed one at a time, in both
// encodings.
func TestBlockAndTupleDeliveryByteIdentical(t *testing.T) {
	tuples := scanTuples(100)
	for _, format := range []Format{FormatBinary, FormatNDJSON} {
		byTuple := httptest.NewRecorder()
		sw := NewStreamWriter(byTuple, format, 3, 8)
		for _, tup := range tuples {
			if err := sw.Tuple(tup); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.End(); err != nil {
			t.Fatal(err)
		}

		byBlock := httptest.NewRecorder()
		writeBlocks(t, NewStreamWriter(byBlock, format, 3, 8), tuples)
		if !bytes.Equal(byTuple.Body.Bytes(), byBlock.Body.Bytes()) {
			t.Fatalf("%v: block delivery and tuple delivery produced different streams (%d vs %d bytes)", format, byBlock.Body.Len(), byTuple.Body.Len())
		}
	}
}

// discardResponse is an http.ResponseWriter that keeps nothing: the alloc
// pins below measure the serving path, not a recorder's buffer growth.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(s int)   { d.status = s }
func (d *discardResponse) Flush()              {}
func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return len(p), nil
}

const scanAnswers = 8192

// scanBucket compiles W[bf](x,y) :- S(x,y) with one key holding
// scanAnswers answers — the shape where per-tuple cost is everything.
func scanBucket(t *testing.T) (path string, rep *core.Representation) {
	t.Helper()
	db := relation.NewDatabase()
	s := relation.NewRelation("S", 2)
	for y := 0; y < scanAnswers; y++ {
		s.MustInsert(1, relation.Value(3*y))
	}
	db.Add(s)
	return compileAndSave(t, t.TempDir(), "w.cqs", cq.MustParse("W[bf](x, y) :- S(x, y)"), db, core.WithStrategy(core.MaterializedStrategy))
}

// TestServeBinaryAllocsPerTuple pins the serving path's allocation budget
// where tier-1 can see it: one binary request over a materialized bucket
// lends the bucket out in blocks and encodes into reused buffers, so what
// it allocates is per request, not per tuple.
func TestServeBinaryAllocsPerTuple(t *testing.T) {
	path, _ := scanBucket(t)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	body := []byte(`{"bindings":{"x":1}}`)
	w := &discardResponse{header: make(http.Header)}
	allocs := testing.AllocsPerRun(20, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/W", bytes.NewReader(body))
		req.Header.Set("Accept", BinaryMediaType)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if perTuple := allocs / scanAnswers; perTuple >= 0.05 {
		t.Fatalf("serving %d answers allocated %.0f times: %.3f allocs/tuple, want < 0.05", scanAnswers, allocs, perTuple)
	}
	if got := h.front.streams.tuples.Load(); got == 0 || got%scanAnswers != 0 {
		t.Fatalf("handler counted %d tuples, want a multiple of %d", got, scanAnswers)
	}
}

// triangleHandler serves the Theorem-1 triangle view at tau 8 — the
// point-request shape — from a fresh snapshot.
func triangleHandler(t testing.TB) (*Handler, *core.Representation) {
	t.Helper()
	view, db := triangleFixture(t, 7)
	path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db, core.WithStrategy(core.PrimitiveStrategy), core.WithTau(8))
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h, rep
}

// TestPointRequestAllocs pins the node's per-request cost on the point
// path: one NDJSON request of the Theorem-1 triangle view at tau 8 through
// Handler.ServeHTTP — body read, binding parse, registry resolve, bind,
// enumerate, encode — with its httptest request built inside the count.
// maxAllocs is the count measured with go1.24 on linux/amd64; a change may
// lower it, never raise it.
func TestPointRequestAllocs(t *testing.T) {
	const maxAllocs = 49
	h, rep := triangleHandler(t)
	defer h.Close()
	var body []byte
	for _, vb := range sampleBindings(rep, 8, 3) {
		if len(core.Drain(rep.Query(vb))) > 0 {
			body, _ = json.Marshal(map[string]any{"bindings": bindByName(rep, vb)})
			break
		}
	}
	if body == nil {
		t.Fatal("fixture produced no answered binding")
	}
	w := &discardResponse{header: make(http.Header)}
	allocs := testing.AllocsPerRun(50, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/V", bytes.NewReader(body))
		req.Header.Set("Accept", NDJSONMediaType)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("one point request allocated %.0f times, want <= %d", allocs, maxAllocs)
	}
	t.Logf("point request: %.0f allocations", allocs)
}

// TestBinaryStreamDrainAllocsPerTuple is the client-side pin: draining a
// binary stream allocates one value slab per frame, not one tuple at a
// time.
func TestBinaryStreamDrainAllocsPerTuple(t *testing.T) {
	_, rep := scanBucket(t)
	body := encodeBinaryStream(t, core.Drain(rep.Query(relation.Tuple{1})), 1, 0)
	allocs := testing.AllocsPerRun(20, func() {
		dec, err := newBinaryReader(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		st := &binaryStream{dec: dec, body: io.NopCloser(bytes.NewReader(nil))}
		n := 0
		for {
			if _, ok := st.Next(); !ok {
				break
			}
			n++
		}
		if err := st.Err(); err != nil || n != scanAnswers {
			t.Fatalf("drained %d tuples, err %v", n, err)
		}
		st.Close()
	})
	if perTuple := allocs / scanAnswers; perTuple >= 0.05 {
		t.Fatalf("draining %d answers allocated %.0f times: %.3f allocs/tuple, want < 0.05", scanAnswers, allocs, perTuple)
	}
}

// countingResponse records what reaches the socket: every Write and every
// Flush, and how much of the body had been pushed at the last Flush.
type countingResponse struct {
	header  http.Header
	body    bytes.Buffer
	status  int
	writes  int
	flushes int
	flushed int
}

func (c *countingResponse) Header() http.Header { return c.header }
func (c *countingResponse) WriteHeader(s int)   { c.status = s }
func (c *countingResponse) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	c.writes++
	return c.body.Write(p)
}
func (c *countingResponse) Flush() { c.flushes, c.flushed = c.flushes+1, c.body.Len() }

// pushedTuples counts the answers a client could already decode from what
// was flushed to it.
func (c *countingResponse) pushedTuples(format Format) int {
	return countTuples(c.body.Bytes()[:c.flushed], format)
}

// countTuples counts the answers a client decodes from body.
func countTuples(body []byte, format Format) int {
	if format == FormatNDJSON {
		return bytes.Count(body, []byte("\n"))
	}
	dec, err := newBinaryReader(bytes.NewReader(body))
	n := 0
	for err == nil {
		if _, ok := dec.Next(); !ok {
			break
		}
		n++
	}
	return n
}

// TestMaterializedStreamLeavesInFullBuffers pins the socket side of a
// lender: a materialized bucket never waits, so its 8192 answers reach the
// socket in 32 KiB writes, not one write and one flush per frame — and
// still in the same frames.
func TestMaterializedStreamLeavesInFullBuffers(t *testing.T) {
	path, rep := scanBucket(t)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	w := &countingResponse{header: make(http.Header)}
	req := httptest.NewRequest(http.MethodPost, "/v1/query/W", bytes.NewReader([]byte(`{"bindings":{"x":1}}`)))
	req.Header.Set("Accept", BinaryMediaType)
	h.ServeHTTP(w, req)

	want := encodeBinaryStream(t, core.Drain(rep.Query(relation.Tuple{1})), 1, 0)
	if !bytes.Equal(w.body.Bytes(), want) {
		t.Fatalf("served %d bytes, not the %d-byte stream of the same frames", w.body.Len(), len(want))
	}
	budget := (len(want)+32*1024-1)/(32*1024) + 2
	if pushes := w.writes + w.flushes; pushes > budget {
		t.Fatalf("%d bytes reached the socket in %d writes and %d flushes, want at most %d in all", len(want), w.writes, w.flushes, budget)
	}
}

// pacedSource serves the bucket's first answers through a per-tuple
// iterator, which is what a computed structure looks like to the handler,
// and records as each answer is computed how many the client already has,
// and how many flushes had happened when the last one was computed.
type pacedSource struct {
	rep         *core.Representation
	w           *countingResponse
	format      Format
	n           int
	seen        []int
	lastFlushes int
}

func (s *pacedSource) QueryBlocks(ctx context.Context, vb relation.Tuple) core.BlockIterator {
	return core.AsBlocks(ctx, &pacedIter{s: s, it: s.rep.Query(vb)})
}

type pacedIter struct {
	s  *pacedSource
	it core.Iterator
}

func (p *pacedIter) Next() (relation.Tuple, bool) {
	if len(p.s.seen) == p.s.n {
		return nil, false
	}
	p.s.seen = append(p.s.seen, p.s.w.pushedTuples(p.s.format))
	p.s.lastFlushes = p.s.w.flushes
	return p.it.Next()
}

func (p *pacedIter) Err() error { return core.IterErr(p.it) }

// TestComputedStreamFlushesEachFrame is the other half: a source behind
// the per-tuple adapter may take a whole delay per answer, so the first
// answer leaves alone and every closed frame reaches the client before the
// next answer is computed — the paper's per-answer delay is not hidden
// behind a buffer. Both encodings take the same 1-then-batch ramp. Once
// the last answer is computed nothing is flushed: the tail and the
// terminal leave when the handler returns.
func TestComputedStreamFlushesEachFrame(t *testing.T) {
	path, rep := scanBucket(t)
	const batch, answers = 4, 19
	for _, format := range []Format{FormatBinary, FormatNDJSON} {
		h, err := New([]string{path}, Options{FlushBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		w := &countingResponse{header: make(http.Header)}
		src := &pacedSource{rep: rep, w: w, format: format, n: answers}
		h.reg.Load().views["W"].src = src
		req := httptest.NewRequest(http.MethodPost, "/v1/query/W", bytes.NewReader([]byte(`{"bindings":{"x":1}}`)))
		req.Header.Set("Accept", format.MediaType())
		h.ServeHTTP(w, req)
		h.Close()

		for i, got := range src.seen {
			want := i
			if i > 0 {
				want = 1 + (i-1)/batch*batch // the lone first tuple, then whole batches
			}
			if got != want {
				t.Fatalf("%v: computing answer %d with %d answers at the client, want %d", format, i, got, want)
			}
		}
		if w.flushes != src.lastFlushes {
			t.Fatalf("%v: %d flushes after the last answer was computed, want none", format, w.flushes-src.lastFlushes)
		}
		if got := countTuples(w.body.Bytes(), format); len(src.seen) != answers || got != answers {
			t.Fatalf("%v: computed %d answers, client has %d, want %d", format, len(src.seen), got, answers)
		}
	}
}

// pointRequest finds a binding of the triangle view whose answers are more
// than one and at most the default FlushBatch, and returns its body and its
// answer count.
func pointRequest(t testing.TB, rep *core.Representation) ([]byte, int) {
	t.Helper()
	for _, vb := range sampleBindings(rep, 32, 3) {
		if n := len(core.Drain(rep.Query(vb))); n > 1 && n <= defaultFlushBatch {
			body, err := json.Marshal(map[string]any{"bindings": bindByName(rep, vb)})
			if err != nil {
				t.Fatal(err)
			}
			return body, n
		}
	}
	t.Fatal("fixture produced no binding with 2 to FlushBatch answers")
	return nil, 0
}

// TestPointRequestPushes pins a point request's socket pushes: the
// Theorem-1 structure computes each answer, so the lone first tuple is
// flushed before the second is computed, and the rest of a result that
// fits one batch leaves with the handler's return — one Flush in all, in
// both encodings.
func TestPointRequestPushes(t *testing.T) {
	h, rep := triangleHandler(t)
	defer h.Close()
	body, answers := pointRequest(t, rep)
	for _, format := range []Format{FormatBinary, FormatNDJSON} {
		w := &countingResponse{header: make(http.Header)}
		req := httptest.NewRequest(http.MethodPost, "/v1/query/V", bytes.NewReader(body))
		req.Header.Set("Accept", format.MediaType())
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%v: status %d", format, w.status)
		}
		if w.flushes != 1 || w.pushedTuples(format) != 1 {
			t.Fatalf("%v: %d flushes pushing %d answers, want 1 pushing the first", format, w.flushes, w.pushedTuples(format))
		}
		if got := countTuples(w.body.Bytes(), format); got != answers {
			t.Fatalf("%v: client has %d answers, want %d", format, got, answers)
		}
	}
}

// BenchmarkPointRequestNDJSON serves one point request of the triangle
// view at tau 8 per iteration over a loopback connection: body parse,
// resolve, bind, enumerate, encode, and the client reading the stream.
func BenchmarkPointRequestNDJSON(b *testing.B) {
	h, rep := triangleHandler(b)
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()
	body, _ := pointRequest(b, rep)
	b.ReportAllocs()
	for b.Loop() {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query/V", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Accept", NDJSONMediaType)
		resp, err := srv.Client().Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
