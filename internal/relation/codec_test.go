package relation

import (
	"bytes"
	"io"
	"math"
	"testing"
)

func TestCodecScalars(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Uint(0)
	e.Uint(127)
	e.Uint(128)
	e.Uint(math.MaxUint64)
	e.Int(0)
	e.Int(-1)
	e.Int(math.MinInt64)
	e.Int(math.MaxInt64)
	e.Bool(true)
	e.Bool(false)
	e.Float(math.Pi)
	e.Float(math.Inf(-1))
	e.Value(NegInf)
	e.Value(42)
	e.String("")
	e.String("héllo")
	e.Byte(0xab)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != int64(buf.Len()) {
		t.Fatalf("Len() = %d, wrote %d", e.Len(), buf.Len())
	}

	d := NewDecoder(buf.Bytes())
	for _, want := range []uint64{0, 127, 128, math.MaxUint64} {
		if got := d.Uint(); got != want {
			t.Fatalf("Uint = %d, want %d", got, want)
		}
	}
	for _, want := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := d.Int(); got != want {
			t.Fatalf("Int = %d, want %d", got, want)
		}
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools round-tripped wrong")
	}
	if got := d.Float(); got != math.Pi {
		t.Fatalf("Float = %v", got)
	}
	if got := d.Float(); !math.IsInf(got, -1) {
		t.Fatalf("Float = %v, want -Inf", got)
	}
	if got := d.Value(); got != NegInf {
		t.Fatalf("Value = %v, want NegInf", got)
	}
	if got := d.Value(); got != 42 {
		t.Fatalf("Value = %v, want 42", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	if got := d.String(); got != "héllo" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Byte(); got != 0xab {
		t.Fatalf("Byte = %#x", got)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err = %v, remaining = %d", d.Err(), d.Remaining())
	}
}

func TestCodecTuples(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Tuple(nil)
	e.Tuple(Tuple{})
	e.Tuple(Tuple{1, -5, 7})
	e.TupleFixed(Tuple{9, 10})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(buf.Bytes())
	if got := d.Tuple(); got != nil {
		t.Fatalf("nil tuple decoded as %v", got)
	}
	if got := d.Tuple(); got == nil || len(got) != 0 {
		t.Fatalf("empty tuple decoded as %v", got)
	}
	if got := d.Tuple(); !got.Equal(Tuple{1, -5, 7}) {
		t.Fatalf("tuple decoded as %v", got)
	}
	if got := d.TupleFixed(2); !got.Equal(Tuple{9, 10}) {
		t.Fatalf("fixed tuple decoded as %v", got)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// writeRecorder records the size of every Write it is handed.
type writeRecorder struct {
	bytes.Buffer
	sizes []int
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestEncoderValuesChunks: Values writes the bytes per-value Value calls
// write, in as few Writes as its chunk size allows, none larger; a
// relation's row slab leaves the same way.
func TestEncoderValuesChunks(t *testing.T) {
	per := valuesChunk / 8
	for _, n := range []int{0, 1, 7, per - 1, per, per + 1, 3*per + 5} {
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = Value(int64(i)*0x5DEECE66D - 1<<40)
		}
		var want bytes.Buffer
		we := NewEncoder(&want)
		for _, v := range vals {
			we.Value(v)
		}
		got := &writeRecorder{}
		ge := NewEncoder(got)
		ge.Values(vals)
		if !bytes.Equal(got.Bytes(), want.Bytes()) || ge.Len() != we.Len() {
			t.Fatalf("n=%d: Values wrote %d bytes unlike per-value Value's %d", n, got.Len(), want.Len())
		}
		if wantWrites := (n + per - 1) / per; len(got.sizes) != wantWrites {
			t.Errorf("n=%d: %d writes, want %d", n, len(got.sizes), wantWrites)
		}
		for _, sz := range got.sizes {
			if sz > valuesChunk {
				t.Errorf("n=%d: one write of %d bytes exceeds the %d-byte chunk", n, sz, valuesChunk)
			}
		}
	}

	r := NewRelation("R", 3)
	for i := 0; i < 2*per; i++ {
		r.MustInsert(Value(i%7), Value(-i), Value(i*i))
	}
	var want bytes.Buffer
	we := NewEncoder(&want)
	we.String(r.Name())
	we.Uint(uint64(r.Arity()))
	we.Uint(uint64(r.Len()))
	for i := 0; i < r.Len(); i++ {
		we.TupleFixed(r.Row(i))
	}
	got := &writeRecorder{}
	NewEncoder(got).Relation(r)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Relation's slab write differs from writing row by row")
	}
	if len(got.sizes) > 5+(3*r.Len()+per-1)/per {
		t.Errorf("Relation used %d writes for %d rows", len(got.sizes), r.Len())
	}
}

// rawFrame is a Nested writer of fixed bytes.
func rawFrame(s string) func(io.Writer) (int64, error) {
	return func(w io.Writer) (int64, error) {
		n, err := w.Write([]byte(s))
		return int64(n), err
	}
}

// TestEncoderCounter: a counter reports the length a writing encoder
// reaches over the same calls, writes nothing, and a nested writer that
// writes other than its announced length fails the encoder.
func TestEncoderCounter(t *testing.T) {
	r := NewRelation("R", 2)
	for i := 0; i < 1000; i++ {
		r.MustInsert(Value(i%13), Value(-i))
	}
	calls := func(e *Encoder) {
		e.Uint(300)
		e.Int(-5)
		e.String("name")
		e.Bool(true)
		e.Float(1.5)
		e.Values([]Value{1, 2, 3})
		e.Relation(r)
		e.Nested(3, rawFrame("abc"))
		e.Raw([]byte{9, 9})
	}
	var buf bytes.Buffer
	we := NewEncoder(&buf)
	calls(we)
	ce := NewCounter()
	calls(ce)
	if we.Err() != nil || ce.Err() != nil {
		t.Fatal(we.Err(), ce.Err())
	}
	if ce.Len() != int64(buf.Len()) || we.Len() != int64(buf.Len()) {
		t.Fatalf("counter says %d bytes, writer %d, buffer holds %d", ce.Len(), we.Len(), buf.Len())
	}
	bad := NewEncoder(&bytes.Buffer{})
	bad.Nested(4, rawFrame("abc"))
	if bad.Err() == nil {
		t.Fatal("a nested writer one byte short did not fail the encoder")
	}
}

func TestCodecDatabaseRoundTrip(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 2)
	r.MustInsert(3, 4)
	r.MustInsert(1, 2)
	r.MustInsert(3, 4) // duplicate: set semantics must survive the trip
	s := NewRelation("S", 1)
	s.MustInsert(9)
	db.Add(r)
	db.Add(s)

	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Database(db)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(buf.Bytes()).Database()
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != db.Size() {
		t.Fatalf("Size = %d, want %d", got.Size(), db.Size())
	}
	gr, err := got.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if gr.Len() != 2 || !gr.Contains(Tuple{1, 2}) || !gr.Contains(Tuple{3, 4}) {
		t.Fatalf("R decoded as %v", gr.Tuples())
	}

	// Identical databases encode to identical bytes (sorted relations,
	// sorted rows).
	var again bytes.Buffer
	e2 := NewEncoder(&again)
	e2.Database(got)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-encoding a decoded database changed the bytes")
	}
}

func TestDecoderHardening(t *testing.T) {
	t.Run("uvarint overflow", func(t *testing.T) {
		d := NewDecoder(bytes.Repeat([]byte{0xff}, 11))
		d.Uint()
		if d.Err() == nil {
			t.Fatal("11-byte uvarint must fail")
		}
	})
	t.Run("count exceeds payload", func(t *testing.T) {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.Uint(1 << 40) // a count far larger than the payload
		d := NewDecoder(buf.Bytes())
		if d.Count(8); d.Err() == nil {
			t.Fatal("oversized count must fail instead of allocating")
		}
	})
	t.Run("truncated value", func(t *testing.T) {
		d := NewDecoder([]byte{1, 2, 3})
		d.Value()
		if d.Err() == nil {
			t.Fatal("3-byte value must fail")
		}
	})
	t.Run("invalid bool", func(t *testing.T) {
		d := NewDecoder([]byte{7})
		d.Bool()
		if d.Err() == nil {
			t.Fatal("bool byte 7 must fail")
		}
	})
	t.Run("sticky error", func(t *testing.T) {
		d := NewDecoder(nil)
		d.Byte()
		first := d.Err()
		if first == nil {
			t.Fatal("read past end must fail")
		}
		d.Uint()
		if d.Err() != first {
			t.Fatal("first error must stick")
		}
	})
	t.Run("relation with sentinel row", func(t *testing.T) {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.String("R")
		e.Uint(1)
		e.Uint(1)
		e.Value(PosInf)
		if _, err := NewDecoder(buf.Bytes()).Relation(); err == nil {
			t.Fatal("sentinel row must be rejected")
		}
	})
	t.Run("duplicate relation name", func(t *testing.T) {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.Uint(2)
		for i := 0; i < 2; i++ {
			e.String("R")
			e.Uint(1)
			e.Uint(0)
		}
		if _, err := NewDecoder(buf.Bytes()).Database(); err == nil {
			t.Fatal("duplicate relation must be rejected")
		}
	})
}

// TestSkipDatabase: stepping over an encoded database leaves the decoder
// where decoding it does, without allocating a row; headers that Database
// rejects — a duplicate name, rows past the payload, an implausible arity
// — fail the skip too.
func TestSkipDatabase(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 2)
	for i := Value(0); i < 1000; i++ {
		r.MustInsert(i, i+1)
	}
	db.Add(r)
	db.Add(NewRelation("E", 0))
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Database(db)
	e.String("after")
	d := NewDecoder(buf.Bytes())
	if allocs := testing.AllocsPerRun(1, func() {
		d = NewDecoder(buf.Bytes())
		if err := d.SkipDatabase(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("SkipDatabase allocates %.0f times, want at most 2", allocs)
	}
	if got := d.String(); got != "after" || d.Err() != nil {
		t.Fatalf("after the skip the decoder reads %q, %v", got, d.Err())
	}

	for name, enc := range map[string]func(e *Encoder){
		"duplicate name": func(e *Encoder) {
			e.Uint(2)
			for i := 0; i < 2; i++ {
				e.String("R")
				e.Uint(1)
				e.Uint(0)
			}
		},
		"rows past the payload": func(e *Encoder) {
			e.Uint(1)
			e.String("R")
			e.Uint(2)
			e.Uint(3)
			e.Value(1)
		},
		"implausible arity": func(e *Encoder) {
			e.Uint(1)
			e.String("R")
			e.Uint(1<<20 + 1)
			e.Uint(0)
		},
	} {
		var buf bytes.Buffer
		enc(NewEncoder(&buf))
		if _, err := NewDecoder(buf.Bytes()).Database(); err == nil {
			t.Fatalf("%s: Database accepts it", name)
		}
		if err := NewDecoder(buf.Bytes()).SkipDatabase(); err == nil {
			t.Errorf("%s: SkipDatabase accepts it", name)
		}
	}
}

// TestDecodeRelationAllocsFlat: decoding a relation allocates one slab
// however many rows it holds, so the count is the same at 1k and at 16k
// rows (rows written in order are kept in place, not re-sorted).
func TestDecodeRelationAllocsFlat(t *testing.T) {
	var counts []float64
	for _, n := range []int{1 << 10, 1 << 14} {
		r := NewRelation("R", 2)
		for i := 0; i < n; i++ {
			r.MustInsert(Value(i/16), Value(i))
		}
		var buf bytes.Buffer
		NewEncoder(&buf).Relation(r)
		raw := buf.Bytes()
		counts = append(counts, testing.AllocsPerRun(10, func() {
			if _, err := NewDecoder(raw).Relation(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] {
		t.Fatalf("decoding a relation allocates %.0f times at 1k rows and %.0f at 16k", counts[0], counts[1])
	}
}
