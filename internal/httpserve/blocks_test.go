package httpserve

import (
	"bytes"
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

// TestBlockAndTupleDeliveryByteIdentical holds StreamWriter's two entry
// points to one wire image: a stream fed block by block at the size Room
// asks for is byte-identical to the same tuples fed one at a time (the
// coordinator's path), in both encodings.
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
	if got := h.tuples.Load(); got == 0 || got%scanAnswers != 0 {
		t.Fatalf("handler counted %d tuples, want a multiple of %d", got, scanAnswers)
	}
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
