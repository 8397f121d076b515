package relation

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// codec.go is the binary wire vocabulary shared by every snapshot
// encoder/decoder in the tree (primitive, decomp, baseline, core). The
// format is deliberately simple and self-consistent:
//
//   - unsigned integers and counts: LEB128 uvarint
//   - signed integers (node links, parent pointers): zigzag uvarint
//   - floats: IEEE-754 bits, 8 bytes big-endian
//   - Values: 8 bytes big-endian (matching Tuple.AppendEncode)
//   - strings and length-prefixed tuples: uvarint length + payload
//   - fixed-arity tuples (relation rows): raw values, arity known
//
// Encoders swallow errors into a sticky Err so call sites stay linear;
// Decoders additionally validate every count against the bytes remaining,
// so a corrupt or truncated payload fails fast instead of allocating
// unbounded memory.

// Encoder writes the snapshot wire format to an io.Writer with a sticky
// error. An encoder with no writer (NewCounter) writes nothing and only
// counts the bytes it would write.
type Encoder struct {
	w       io.Writer
	n       int64
	err     error
	scratch []byte // Values' chunk buffer, made on first use
	// word holds one scalar's bytes on their way to w: a local array
	// handed to an interface Write escapes, one allocation per value.
	word [binary.MaxVarintLen64]byte
}

// NewEncoder returns an encoder over w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// NewCounter returns an encoder that writes nothing: Len reports how many
// bytes the same calls would write to NewEncoder's writer. A frame writer
// runs its payload through one to put the length in front of the bytes
// without holding them.
func NewCounter() *Encoder { return &Encoder{} }

// Err returns the first write error, if any.
func (e *Encoder) Err() error { return e.err }

// Fail records err as the encoder's sticky error. Composite encoders use
// it to surface failures from nested serialization steps that do not write
// through this encoder directly.
func (e *Encoder) Fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int64 { return e.n }

func (e *Encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	if e.w == nil {
		e.n += int64(len(p))
		return
	}
	n, err := e.w.Write(p)
	e.n += int64(n)
	e.err = err
}

// Byte writes one raw byte.
func (e *Encoder) Byte(b byte) {
	e.word[0] = b
	e.write(e.word[:1])
}

// Raw writes p verbatim (the caller's decoder must know the length).
func (e *Encoder) Raw(p []byte) { e.write(p) }

// Uint writes v as a LEB128 uvarint.
func (e *Encoder) Uint(v uint64) {
	n := binary.PutUvarint(e.word[:], v)
	e.write(e.word[:n])
}

// Int writes v zigzag-encoded as a uvarint.
func (e *Encoder) Int(v int64) { e.Uint(uint64(v<<1) ^ uint64(v>>63)) }

// Bool writes b as one byte (0 or 1).
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Float writes the IEEE-754 bits of f, 8 bytes big-endian.
func (e *Encoder) Float(f float64) { e.be64(math.Float64bits(f)) }

func (e *Encoder) be64(u uint64) {
	binary.BigEndian.PutUint64(e.word[:8], u)
	e.write(e.word[:8])
}

// Floats writes a uvarint count followed by each float.
func (e *Encoder) Floats(fs []float64) {
	e.Uint(uint64(len(fs)))
	for _, f := range fs {
		e.Float(f)
	}
}

// Value writes one Value, 8 bytes big-endian (the Tuple.AppendEncode
// layout).
func (e *Encoder) Value(v Value) { e.be64(uint64(v)) }

// valuesChunk is how many bytes of a slab Values hands to one Write.
const valuesChunk = 4 << 10

// Values writes each value of vals as Value does, with no count, in
// chunks of up to valuesChunk bytes, one Write each.
func (e *Encoder) Values(vals []Value) {
	if e.w == nil && e.err == nil {
		e.n += 8 * int64(len(vals))
		return
	}
	for len(vals) > 0 && e.err == nil {
		k := min(len(vals), valuesChunk/8)
		if cap(e.scratch) < 8*k {
			e.scratch = make([]byte, 0, min(8*len(vals), valuesChunk))
		}
		buf := e.scratch[:8*k]
		for i, v := range vals[:k] {
			binary.BigEndian.PutUint64(buf[8*i:], uint64(v))
		}
		e.write(buf)
		vals = vals[k:]
	}
}

// Nested writes n raw bytes by handing the encoder's writer to write,
// which reports how many it wrote; a count other than n fails the
// encoder. A counter adds n without calling write.
func (e *Encoder) Nested(n int64, write func(io.Writer) (int64, error)) {
	if e.err != nil {
		return
	}
	if e.w == nil {
		e.n += n
		return
	}
	m, err := write(e.w)
	e.n += m
	if err == nil && m != n {
		err = fmt.Errorf("relation: nested writer wrote %d bytes, announced %d", m, n)
	}
	e.err = err
}

// String writes a uvarint length followed by the bytes.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	e.write([]byte(s))
}

// Tuple writes a nil-aware, length-prefixed tuple: 0 encodes nil,
// len(t)+1 encodes t itself.
func (e *Encoder) Tuple(t Tuple) {
	if t == nil {
		e.Uint(0)
		return
	}
	e.Uint(uint64(len(t)) + 1)
	for _, v := range t {
		e.Value(v)
	}
}

// TupleFixed writes the values of t with no length prefix; the decoder
// supplies the arity.
func (e *Encoder) TupleFixed(t Tuple) {
	for _, v := range t {
		e.Value(v)
	}
}

// Relation writes the relation's name, arity, cardinality, and rows in
// lexicographic order. The row slab is streamed straight off the
// deduplicated store (Len sorts it in place), not cloned — base relations
// dominate a snapshot's size and must not be copied just to serialize.
func (e *Encoder) Relation(r *Relation) {
	e.String(r.Name())
	e.Uint(uint64(r.Arity()))
	n := r.Len()
	e.Uint(uint64(n))
	e.Values(r.vals[:n*r.arity])
}

// Database writes the database's relations sorted by name, so identical
// databases always serialize to identical bytes.
func (e *Encoder) Database(db *Database) {
	names := db.Names()
	e.Uint(uint64(len(names)))
	for _, n := range names {
		r, _ := db.Relation(n)
		e.Relation(r)
	}
}

// Decoder reads the snapshot wire format from an in-memory payload with a
// sticky error. Every length and count is validated against the bytes
// remaining, so corrupt input fails with an error instead of a huge
// allocation or a panic.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("relation: snapshot decode: "+format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("truncated payload: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	p := d.buf[d.pos : d.pos+n]
	d.pos += n
	return p
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Raw reads n raw bytes.
func (d *Decoder) Raw(n int) []byte { return d.take(n) }

// Uint reads a LEB128 uvarint.
func (d *Decoder) Uint() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		if d.err != nil {
			return 0
		}
		b := d.Byte()
		if shift == 63 && b > 1 {
			d.fail("uvarint overflows 64 bits")
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
	d.fail("uvarint longer than 10 bytes")
	return 0
}

// Int reads a zigzag-encoded signed integer.
func (d *Decoder) Int() int64 {
	u := d.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one byte, rejecting anything but 0 and 1.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err == nil && b > 1 {
		d.fail("invalid boolean byte %#x", b)
	}
	return b == 1
}

// Float reads 8 big-endian bytes as IEEE-754 bits.
func (d *Decoder) Float() float64 { return math.Float64frombits(d.be64()) }

func (d *Decoder) be64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// Count reads a uvarint count of elements each at least elemBytes wide and
// validates it against the bytes remaining.
func (d *Decoder) Count(elemBytes int) int {
	v := d.Uint()
	if d.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if v > uint64(d.Remaining()/elemBytes) {
		d.fail("count %d exceeds remaining payload (%d bytes)", v, d.Remaining())
		return 0
	}
	return int(v)
}

// Floats reads a counted float slice.
func (d *Decoder) Floats() []float64 {
	n := d.Count(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Float()
	}
	return out
}

// Value reads one 8-byte big-endian Value.
func (d *Decoder) Value() Value { return Value(d.be64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Count(1)
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// Tuple reads a nil-aware, length-prefixed tuple (see Encoder.Tuple).
func (d *Decoder) Tuple() Tuple {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	return d.TupleFixed(n - 1)
}

// TupleFixed reads arity values as one tuple. Arity zero yields the empty
// (non-nil) tuple.
func (d *Decoder) TupleFixed(arity int) Tuple {
	if d.err != nil {
		return nil
	}
	if arity < 0 || d.Remaining() < 8*arity {
		d.fail("truncated tuple: arity %d, %d bytes remaining", arity, d.Remaining())
		return nil
	}
	t := make(Tuple, arity)
	for i := range t {
		t[i] = d.Value()
	}
	return t
}

// Values reads n Values into one fresh slab, the bulk form of Value for
// rows of a known stride. Callers bound n by Count first, so the slab never
// outgrows the payload.
func (d *Decoder) Values(n int) []Value {
	p := d.take(8 * n)
	if p == nil {
		return nil
	}
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = Value(binary.BigEndian.Uint64(p[8*i:]))
	}
	return vals
}

// Relation reads one relation (see Encoder.Relation) into one slab and
// rebuilds the deduplicated sorted row set; rows written in order, as
// Encoder.Relation writes them, stay in place. Rows containing the
// reserved sentinel values are rejected, mirroring Insert.
func (d *Decoder) Relation() (*Relation, error) {
	name, arity, n := d.relationHeader()
	if d.err != nil {
		return nil, d.err
	}
	vals := d.Values(n * arity)
	if d.err != nil {
		return nil, d.err
	}
	for i, v := range vals {
		if v == NegInf || v == PosInf {
			d.fail("relation %s: row %v contains reserved sentinel value", name, RowAt(vals, arity, i/arity))
			return nil, d.err
		}
	}
	r := NewRelation(name, arity)
	r.vals, r.n = vals, n
	r.dedupe()
	return r, nil
}

// relationHeader reads a relation's name, arity and row count, checking
// that the arity is plausible and that the rows fit in the bytes
// remaining.
func (d *Decoder) relationHeader() (name string, arity, n int) {
	name = d.String()
	a := d.Uint()
	if d.err != nil {
		return name, 0, 0
	}
	if a > 1<<20 {
		d.fail("relation %s: implausible arity %d", name, a)
		return name, 0, 0
	}
	arity = int(a)
	return name, arity, d.Count(8 * arity)
}

// SkipDatabase steps over one database (see Encoder.Database) without
// decoding a row: each relation's header is checked as Relation checks it
// (plausible arity, rows within the bytes remaining, no name twice) and
// its row slab is skipped unread, so the values are not checked for the
// reserved sentinels. A reader that needs only what follows the base
// relations pays for their headers, not their rows.
func (d *Decoder) SkipDatabase() error {
	n := d.Count(2)
	seen := make(map[string]bool, n)
	for i := 0; i < n && d.err == nil; i++ {
		name, arity, rows := d.relationHeader()
		d.take(8 * arity * rows)
		if d.err == nil && seen[name] {
			d.fail("duplicate relation %s", name)
		}
		seen[name] = true
	}
	return d.err
}

// Database reads one database (see Encoder.Database).
func (d *Decoder) Database() (*Database, error) {
	n := d.Count(2)
	if d.err != nil {
		return nil, d.err
	}
	db := NewDatabase()
	for i := 0; i < n; i++ {
		r, err := d.Relation()
		if err != nil {
			return nil, err
		}
		if _, err := db.Relation(r.Name()); err == nil {
			d.fail("duplicate relation %s", r.Name())
			return nil, d.err
		}
		db.Add(r)
	}
	return db, nil
}
