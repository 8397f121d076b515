package httpserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

func TestNegotiateFormat(t *testing.T) {
	cases := []struct {
		accept string
		want   Format
	}{
		{"", FormatNDJSON},
		{"*/*", FormatNDJSON},
		{"application/x-ndjson", FormatNDJSON},
		{"application/json, text/plain", FormatNDJSON},
		{BinaryMediaType, FormatBinary},
		{"APPLICATION/X-CQREP-BINARY", FormatBinary},
		{"application/x-ndjson, " + BinaryMediaType, FormatBinary},
		{" " + BinaryMediaType + " ; q=0.9", FormatBinary},
		{BinaryMediaType + "x", FormatNDJSON},
		{"application/x-cqrep", FormatNDJSON},

		// q-values: the highest-weighted acceptable type wins, binary on
		// an exact tie (it is the cheaper encoding for both sides).
		{BinaryMediaType + ";q=0.9, application/x-ndjson", FormatNDJSON},
		{BinaryMediaType + ", */*", FormatBinary},
		{BinaryMediaType + ";q=1, application/x-ndjson;q=1", FormatBinary},
		{BinaryMediaType + ";q=0", FormatNDJSON},
		{BinaryMediaType + ";q=0, application/x-ndjson;q=0", FormatNDJSON},
		{"application/x-ndjson;q=0.5, " + BinaryMediaType + ";q=0.4", FormatNDJSON},
		{"application/x-ndjson;q=0.3, " + BinaryMediaType + ";q=0.5", FormatBinary},
		{BinaryMediaType + ";Q=0.1, application/x-ndjson", FormatNDJSON},
		{BinaryMediaType + "; q=0.2 , application/*", FormatNDJSON},
		// A wildcard never selects binary: clients must name it.
		{"*/*;q=1", FormatNDJSON},
		{"application/*;q=0.9, " + BinaryMediaType + ";q=0.8", FormatNDJSON},
		// Unparseable or out-of-range q degrades to 1 / clamps, never panics.
		{BinaryMediaType + ";q=banana, application/x-ndjson;q=0.9", FormatBinary},
		{BinaryMediaType + ";q=7, */*;q=0.5", FormatBinary},
		{BinaryMediaType + ";charset=utf-8;q=0.9, application/x-ndjson", FormatNDJSON},
		// Repeated mentions take the max weight per type.
		{BinaryMediaType + ";q=0.1, " + BinaryMediaType + ", application/x-ndjson;q=0.9", FormatBinary},
	}
	for _, c := range cases {
		if got := NegotiateFormat(c.accept); got != c.want {
			t.Errorf("NegotiateFormat(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{"": FormatNDJSON, "ndjson": FormatNDJSON, "NDJSON": FormatNDJSON, "binary": FormatBinary, " Binary ": FormatBinary} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseFormat("protobuf"); err == nil {
		t.Error("ParseFormat accepted an unknown format")
	}
	if FormatNDJSON.MediaType() != NDJSONMediaType || FormatBinary.MediaType() != BinaryMediaType {
		t.Error("Format media types drifted from the wire constants")
	}
}

// TestBinaryFrameRoundTrip drives the writer/reader pair directly: tuples
// flushed in uneven batches decode back identically, in order, with a
// clean terminal.
func TestBinaryFrameRoundTrip(t *testing.T) {
	tuples := make([]relation.Tuple, 0, 100)
	for i := 0; i < 100; i++ {
		tuples = append(tuples, relation.Tuple{relation.Value(i), relation.Value(-i), relation.Value(int64(i) << 40)})
	}

	var buf bytes.Buffer
	enc := newBinaryWriter(&buf)
	if err := enc.Header(3); err != nil {
		t.Fatal(err)
	}
	pending := 0
	for i, tup := range tuples {
		enc.Add(tup)
		// Uneven flush points: 1 tuple, then growing batches, mirroring the
		// server's ramp.
		if pending++; pending >= 1+i/7 {
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			pending = 0
		}
	}
	enc.Flush()
	if err := enc.End(); err != nil {
		t.Fatal(err)
	}

	dec, err := newBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Arity() != 3 {
		t.Fatalf("arity = %d, want 3", dec.Arity())
	}
	var got []relation.Tuple
	for {
		tup, ok := dec.Next()
		if !ok {
			break
		}
		got = append(got, tup)
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("Err = %v, want nil", err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(tuples))
	}
	for i := range got {
		if !got[i].Equal(tuples[i]) {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], tuples[i])
		}
	}
}

// TestBinaryErrorFrame checks that a mid-stream error frame delivers the
// prior tuples and surfaces as a *RemoteError with status 200.
func TestBinaryErrorFrame(t *testing.T) {
	var buf bytes.Buffer
	enc := newBinaryWriter(&buf)
	enc.Header(2)
	enc.Add(relation.Tuple{1, 2})
	enc.Add(relation.Tuple{3, 4})
	enc.Flush()
	enc.Error("page read failed")

	dec, err := newBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := dec.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("decoded %d tuples before the error, want 2", n)
	}
	var re *RemoteError
	if err := dec.Err(); !errors.As(err, &re) || re.Status != http.StatusOK || re.Message != "page read failed" {
		t.Fatalf("Err = %v, want RemoteError{200, page read failed}", err)
	}
}

// TestBinaryReaderRejects pins the defensive contract of the frame
// reader: truncation anywhere, implausible lengths, inconsistent counts,
// and unknown frame kinds all fail without panicking or over-allocating.
func TestBinaryReaderRejects(t *testing.T) {
	// A well-formed one-tuple stream to truncate at every prefix.
	var buf bytes.Buffer
	enc := newBinaryWriter(&buf)
	enc.Header(2)
	enc.Add(relation.Tuple{7, 8})
	enc.Flush()
	enc.End()
	whole := buf.Bytes()

	drain := func(data []byte) error {
		dec, err := newBinaryReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for {
			if _, ok := dec.Next(); !ok {
				return dec.Err()
			}
		}
	}

	t.Run("every truncation fails", func(t *testing.T) {
		for cut := 0; cut < len(whole); cut++ {
			if err := drain(whole[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded cleanly", cut, len(whole))
			}
		}
		if err := drain(whole); err != nil {
			t.Fatalf("whole stream failed: %v", err)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("NOPE"), whole[4:]...)
		if err := drain(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("implausible arity", func(t *testing.T) {
		hdr := append([]byte(binaryMagic), binary.AppendUvarint(nil, maxWireArity+1)...)
		if err := drain(hdr); err == nil || !strings.Contains(err.Error(), "arity") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("implausible frame length", func(t *testing.T) {
		s := append([]byte(binaryMagic), binary.AppendUvarint(nil, 2)...)
		s = append(s, frameData)
		s = binary.AppendUvarint(s, maxFrameBytes+1)
		if err := drain(s); err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("count does not match body", func(t *testing.T) {
		s := append([]byte(binaryMagic), binary.AppendUvarint(nil, 2)...)
		s = append(s, frameData)
		var cnt [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(cnt[:], 3) // claims 3 tuples, carries 1
		s = binary.AppendUvarint(s, uint64(n+16))
		s = append(s, cnt[:n]...)
		s = append(s, make([]byte, 16)...)
		if err := drain(s); err == nil || !strings.Contains(err.Error(), "claims") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("arity zero refuses tuples", func(t *testing.T) {
		s := append([]byte(binaryMagic), binary.AppendUvarint(nil, 0)...)
		s = append(s, frameData)
		var cnt [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(cnt[:], 1<<40)
		s = binary.AppendUvarint(s, uint64(n))
		s = append(s, cnt[:n]...)
		if err := drain(s); err == nil || !strings.Contains(err.Error(), "arity 0") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("unknown frame kind", func(t *testing.T) {
		s := append([]byte(binaryMagic), binary.AppendUvarint(nil, 2)...)
		s = append(s, 0x7f)
		if err := drain(s); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("EOF lands as unexpected", func(t *testing.T) {
		err := drain(append([]byte(nil), whole[:len(whole)-1]...))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

// TestBinaryQueryByteIdentical is the binary twin of the NDJSON
// acceptance path: the Accept-negotiated binary stream decodes
// byte-for-byte identical to both the in-process enumeration and the
// NDJSON stream, across strategies including a sharded build.
func TestBinaryQueryByteIdentical(t *testing.T) {
	view, db := triangleFixture(t, 7)
	cases := []struct {
		name string
		opts []core.Option
	}{
		{"primitive", []core.Option{core.WithStrategy(core.PrimitiveStrategy), core.WithTau(4)}},
		{"materialized", []core.Option{core.WithStrategy(core.MaterializedStrategy)}},
		{"sharded", []core.Option{core.WithStrategy(core.PrimitiveStrategy), core.WithTau(4), core.WithShards(3)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db, c.opts...)
			h, err := New([]string{path}, Options{FlushBatch: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			ts := httptest.NewServer(h)
			defer ts.Close()
			cl := &Client{Base: ts.URL}

			for _, vb := range sampleBindings(rep, 12, 99) {
				bin, err := cl.QueryOpts(context.Background(), "V", QueryOptions{Bindings: bindByName(rep, vb), Format: FormatBinary})
				if err != nil {
					t.Fatalf("binary query %v: %v", vb, err)
				}
				nd, err := cl.QueryOpts(context.Background(), "V", QueryOptions{Bindings: bindByName(rep, vb), Format: FormatNDJSON})
				if err != nil {
					t.Fatalf("ndjson query %v: %v", vb, err)
				}
				want := core.Drain(rep.Query(vb))
				if !bytes.Equal(encodeAll(bin.Tuples), encodeAll(want)) {
					t.Fatalf("binding %v: binary stream diverges from in-process enumeration: %d vs %d tuples", vb, len(bin.Tuples), len(want))
				}
				if !bytes.Equal(encodeAll(bin.Tuples), encodeAll(nd.Tuples)) {
					t.Fatalf("binding %v: binary and NDJSON streams disagree", vb)
				}
			}
		})
	}
}

// TestAllBoundAnswersInBothFormats: an all-bound view streams arity-0
// tuples — one empty tuple for a true answer, none for a false one — and a
// client reads that back in both encodings, unsharded and sharded. The
// binary framing carries the true answer as a one-tuple frame of no
// bytes, which the reader once rejected as forged.
func TestAllBoundAnswersInBothFormats(t *testing.T) {
	s := relation.NewRelation("S", 2)
	for x := 0; x < 20; x++ {
		s.MustInsert(relation.Value(x), relation.Value(-3*x))
	}
	db := relation.NewDatabase()
	db.Add(s)
	view := cq.MustParse("V[bb](x, y) :- S(x, y)")
	for _, shards := range []int{1, 3} {
		path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db, core.WithShards(shards))
		h, err := New([]string{path}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		cl := &Client{Base: ts.URL}
		for _, vb := range []relation.Tuple{{4, -12}, {4, 12}, {19, -57}} {
			want := core.Drain(rep.Query(vb))
			for _, format := range []Format{FormatBinary, FormatNDJSON} {
				res, err := cl.QueryOpts(context.Background(), "V", QueryOptions{Bindings: bindByName(rep, vb), Format: format})
				if err != nil {
					t.Fatalf("%d shards, %v (%s): %v", shards, vb, format, err)
				}
				if len(res.Tuples) != len(want) || len(want) > 1 || (len(want) == 1 && len(res.Tuples[0]) != 0) {
					t.Fatalf("%d shards, %v (%s): got %v, want %v", shards, vb, format, res.Tuples, want)
				}
			}
		}
		ts.Close()
		h.Close()
	}
}

// TestBinaryContentTypeAndLimit checks the negotiated response headers
// and the limit contract on the binary path.
func TestBinaryContentTypeAndLimit(t *testing.T) {
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

	for _, vb := range sampleBindings(rep, 20, 3) {
		want := core.Drain(rep.Query(vb))
		if len(want) < 3 {
			continue
		}
		body, _ := json.Marshal(map[string]any{"bindings": bindByName(rep, vb)})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query/V", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", BinaryMediaType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != BinaryMediaType {
			t.Fatalf("Content-Type = %q, want %q", ct, BinaryMediaType)
		}
		if resp.Header.Get("X-Cqrep-View") != "V" {
			t.Fatalf("X-Cqrep-View = %q", resp.Header.Get("X-Cqrep-View"))
		}
		io.Copy(io.Discard, resp.Body)

		res, err := cl.QueryOpts(context.Background(), "V", QueryOptions{Bindings: bindByName(rep, vb), Limit: 2, Format: FormatBinary})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 2 || !bytes.Equal(encodeAll(res.Tuples), encodeAll(want[:2])) {
			t.Fatalf("limited binary stream is not a 2-prefix of the enumeration (%d tuples)", len(res.Tuples))
		}
		return
	}
	t.Fatal("no binding with at least 3 answers found")
}

// TestBinaryStreamTerminalError is the binary twin of the NDJSON
// mid-stream failure contract: produced tuples are delivered, then the
// error frame carries the failure.
func TestBinaryStreamTerminalError(t *testing.T) {
	view, db := triangleFixture(t, 23)
	path, rep := compileAndSave(t, t.TempDir(), "v.cqs", view, db)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	boom := errors.New("page read failed")
	entry := h.reg.Load().views["V"]
	entry.src = &failingSource{rep: rep, err: boom, after: 2}

	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	for _, vb := range sampleBindings(rep, 20, 31) {
		if len(core.Drain(rep.Query(vb))) < 3 {
			continue
		}
		res, err := cl.QueryOpts(context.Background(), "V", QueryOptions{Bindings: bindByName(rep, vb), Format: FormatBinary})
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("error = %v, want RemoteError carrying the error frame", err)
		}
		if re.Status != http.StatusOK || !strings.Contains(re.Message, "page read failed") {
			t.Fatalf("terminal error = %+v", re)
		}
		if len(res.Tuples) != 2 {
			t.Fatalf("tuples before the failure = %d, want 2", len(res.Tuples))
		}
		return
	}
	t.Fatal("no binding with at least 3 answers found")
}

// TestBinaryStreamErrorBeforeFirstTuple pins the status-code contract on
// the binary path: the staged stream header must not commit the 200, so a
// source that fails before its first tuple still answers 500.
func TestBinaryStreamErrorBeforeFirstTuple(t *testing.T) {
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
	_, err = cl.QueryOpts(context.Background(), "V", QueryOptions{Bindings: bindByName(rep, vb), Format: FormatBinary})
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

// FuzzBinaryStream hardens the binary frame reader against adversarial
// streams: whatever bytes arrive, the decoder must not panic, must bound
// what it allocates, must only yield tuples of the declared arity, and a
// decoded prefix must re-encode into a stream that decodes identically.
// Decoded tuples are the caller's: each is snapshotted as it arrives and
// must still read the same once the stream is exhausted (no aliasing of
// the frame buffer or of a neighbour's slab space). The encoded NextRows
// path reads the same input again and must yield rows that decode to the
// same tuples, in runs no longer than asked for, and the same terminal
// error; so must a reader that alternates the two paths.
func FuzzBinaryStream(f *testing.F) {
	mk := func(build func(e *binaryWriter)) []byte {
		var buf bytes.Buffer
		e := newBinaryWriter(&buf)
		build(e)
		return buf.Bytes()
	}
	f.Add(mk(func(e *binaryWriter) { e.Header(2); e.Add(relation.Tuple{1, 2}); e.Flush(); e.End() }))
	f.Add(mk(func(e *binaryWriter) { e.Header(0); e.End() }))
	f.Add(mk(func(e *binaryWriter) { e.Header(1); e.Error("boom") }))
	f.Add(mk(func(e *binaryWriter) {
		e.Header(3)
		for i := 0; i < 50; i++ {
			e.Add(relation.Tuple{relation.Value(i), 0, -1})
			if i%7 == 0 {
				e.Flush()
			}
		}
		e.Flush()
		e.Error("mid-stream failure")
	}))
	many := encodeBinaryStream(f, scanTuples(100), 3, 8)
	f.Add(many) // many frames, all tuples retained below
	f.Add(many[:len(many)/2])
	f.Add(mk(func(e *binaryWriter) { // arity 0 with a forged tuple count
		e.Header(0)
		cnt := binary.AppendUvarint(nil, 1<<40)
		e.w.Write(append(binary.AppendUvarint([]byte{frameData}, uint64(len(cnt))), cnt...))
	}))
	f.Add(mk(func(e *binaryWriter) { // a count the frame's length cannot hold
		e.Header(2)
		cnt := binary.AppendUvarint(nil, 3)
		e.w.Write(append(append(binary.AppendUvarint([]byte{frameData}, uint64(len(cnt)+16)), cnt...), make([]byte, 16)...))
		e.End()
	}))
	f.Add(mk(func(e *binaryWriter) { // arity 0: an all-bound view's one true answer
		e.Header(0)
		e.Add(relation.Tuple{})
		e.Flush()
		e.End()
	}))
	f.Add(mk(func(e *binaryWriter) { // arity 0: a second empty tuple is forged
		e.Header(0)
		for range 2 {
			e.Add(relation.Tuple{})
			e.Flush()
		}
		e.End()
	}))
	f.Add(mk(func(e *binaryWriter) { // a frame larger than the read buffer: the copy path
		e.Header(1)
		e.Add(relation.Tuple{-1})
		e.Flush()
		for i := range streamBufSize/8 + 100 {
			e.Add(relation.Tuple{relation.Value(i - 50)})
		}
		e.Flush()
		e.Add(relation.Tuple{7})
		e.Flush()
		e.End()
	}))
	f.Add([]byte("CQB1"))
	f.Add([]byte("CQB1\x02\x01\x05hello"))
	f.Add([]byte("NOPE\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		dec, err := newBinaryReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		arity := dec.Arity()
		var tuples, asDecoded []relation.Tuple
		for {
			tup, ok := dec.Next()
			if !ok {
				break
			}
			if len(tup) != arity || cap(tup) != arity {
				t.Fatalf("tuple len %d cap %d, stream declared arity %d", len(tup), cap(tup), arity)
			}
			tuples = append(tuples, tup)
			asDecoded = append(asDecoded, tup.Clone())
			if len(tuples) > len(data) { // each tuple needs at least 8*arity>=0 input bytes
				t.Fatalf("decoded %d tuples out of %d input bytes", len(tuples), len(data))
			}
		}
		terminal := dec.Err()
		if _, ok := dec.Next(); ok {
			t.Fatal("Next yielded a tuple after reporting exhaustion")
		}
		for i, tup := range tuples {
			if !tup.Equal(asDecoded[i]) {
				t.Fatalf("retained tuple %d changed under later frames: %v, decoded as %v", i, tup, asDecoded[i])
			}
		}

		for _, mixed := range []bool{false, true} {
			lender, err := newBinaryReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("second read of an accepted header: %v", err)
			}
			read := 0
			for max := 1; ; max = max%5 + 1 {
				if mixed && max == 2 {
					tup, ok := lender.Next()
					if !ok {
						break
					}
					if read >= len(asDecoded) || !tup.Equal(asDecoded[read]) {
						t.Fatalf("mixed read: Next tuple %d = %v diverges from Next's %d tuples", read, tup, len(asDecoded))
					}
					read++
					continue
				}
				rows := lender.NextRows(max)
				if rows.N == 0 {
					break
				}
				if rows.N > max || rows.Arity != arity || len(rows.Data) != 8*rows.N*arity {
					t.Fatalf("NextRows(%d) lent %d rows of arity %d in %d bytes", max, rows.N, rows.Arity, len(rows.Data))
				}
				for i := range rows.N {
					tup := rows.DecodeRow(i, make(relation.Tuple, arity))
					if read >= len(asDecoded) || !tup.Equal(asDecoded[read]) {
						t.Fatalf("NextRows row %d = %v diverges from Next's %d tuples", read, tup, len(asDecoded))
					}
					read++
				}
			}
			if read != len(asDecoded) || fmt.Sprint(lender.Err()) != fmt.Sprint(terminal) {
				t.Fatalf("NextRows (mixed %v) read %d tuples ending in %v, Next read %d ending in %v", mixed, read, lender.Err(), len(asDecoded), terminal)
			}
			if rows := lender.NextRows(3); rows.N != 0 {
				t.Fatal("NextRows lent rows after reporting exhaustion")
			}
		}

		// Whatever prefix decoded must survive a round trip through the
		// writer: re-encode the tuples (and terminal state) and re-decode.
		var buf bytes.Buffer
		enc := newBinaryWriter(&buf)
		enc.Header(arity)
		for i, tup := range tuples {
			enc.Add(tup)
			if i%5 == 0 {
				enc.Flush()
			}
		}
		enc.Flush()
		var re *RemoteError
		switch {
		case terminal == nil:
			enc.End()
		case errors.As(terminal, &re):
			enc.Error(re.Message)
		default:
			enc.End() // truncated input: re-encode the clean prefix
		}
		dec2, err := newBinaryReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode header: %v", err)
		}
		for i := 0; ; i++ {
			tup, ok := dec2.Next()
			if !ok {
				if i != len(tuples) {
					t.Fatalf("round trip decoded %d tuples, want %d", i, len(tuples))
				}
				break
			}
			if !tup.Equal(tuples[i]) {
				t.Fatalf("round trip tuple %d = %v, want %v", i, tup, tuples[i])
			}
		}
		var re2 *RemoteError
		if re != nil {
			if err := dec2.Err(); !errors.As(err, &re2) || re2.Message != re.Message {
				t.Fatalf("round trip terminal = %v, want error %q", err, re.Message)
			}
		} else if err := dec2.Err(); err != nil {
			t.Fatalf("round trip terminal = %v, want clean end", err)
		}
	})
}
