// Package relation implements the relational storage substrate used by the
// compressed-representation structures: constant-size values, tuples with
// lexicographic order, set-semantics relations, and sorted indexes that
// support the O~(1) prefix and range counting required by the cost
// estimators of Deep & Koutris (PODS 2018), Section 4.
package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a single domain constant. The paper's uniform-cost RAM model
// assumes constant-size data values; int64 matches that assumption while
// leaving room for hashed or dictionary-encoded external values.
type Value int64

// NegInf and PosInf are reserved sentinel values denoting the extremes of
// every domain (the paper's ⊥ and ⊤). Relations must not contain them;
// Relation.Insert rejects them.
const (
	NegInf Value = math.MinInt64
	PosInf Value = math.MaxInt64
)

// String renders a value, using the conventional symbols for the sentinels.
func (v Value) String() string {
	switch v {
	case NegInf:
		return "⊥"
	case PosInf:
		return "⊤"
	default:
		return strconv.FormatInt(int64(v), 10)
	}
}

// Tuple is an ordered sequence of values. Tuples are compared
// lexicographically position by position.
type Tuple []Value

// Compare returns -1, 0, or +1 according to the lexicographic order of t and
// u. It panics if the tuples have different lengths: comparing tuples from
// different spaces is always a programming error.
func (t Tuple) Compare(u Tuple) int {
	if len(t) != len(u) {
		panic(fmt.Sprintf("relation: comparing tuples of different arity %d vs %d", len(t), len(u)))
	}
	for i := range t {
		switch {
		case t[i] < u[i]:
			return -1
		case t[i] > u[i]:
			return 1
		}
	}
	return 0
}

// Less reports whether t precedes u lexicographically.
func (t Tuple) Less(u Tuple) bool { return t.Compare(u) < 0 }

// Equal reports whether t and u agree at every position.
func (t Tuple) Equal(u Tuple) bool { return t.Compare(u) == 0 }

// Clone returns a copy of t that does not share backing storage.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	u := make(Tuple, len(t))
	copy(u, t)
	return u
}

// Project returns the subtuple of t at the given positions.
func (t Tuple) Project(positions []int) Tuple {
	u := make(Tuple, len(positions))
	for i, p := range positions {
		u[i] = t[p]
	}
	return u
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// AppendEncode appends a fixed-width binary encoding of t to dst: each
// value as the 8 big-endian bytes of its two's complement, the row layout
// of the binary wire framing (Rows) and a compact map key. The bytes do not
// sort like the values — a negative value's high bit makes it compare
// above every non-negative one under bytes.Compare — so an encoded row is
// ordered by what it decodes to (Rows.Value).
func (t Tuple) AppendEncode(dst []byte) []byte {
	for _, v := range t {
		u := uint64(v)
		dst = append(dst,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return dst
}

// DecodeFrom fills t in place from the front of p — the inverse of
// AppendEncode, len(t) fixed-width 8-byte big-endian values — and returns
// the remaining bytes. It reports false when p is too short, leaving t
// partially untouched.
func (t Tuple) DecodeFrom(p []byte) ([]byte, bool) {
	if len(p) < 8*len(t) {
		return p, false
	}
	for i := range t {
		u := uint64(p[0])<<56 | uint64(p[1])<<48 | uint64(p[2])<<40 | uint64(p[3])<<32 |
			uint64(p[4])<<24 | uint64(p[5])<<16 | uint64(p[6])<<8 | uint64(p[7])
		t[i] = Value(u)
		p = p[8:]
	}
	return p, true
}

// Rows is a run of encoded rows: N rows of Arity values each, back to back
// in AppendEncode's layout — the payload of a binary data frame. At arity 0
// a row takes no bytes, so N, not len(Data), counts the rows.
type Rows struct {
	Data     []byte
	N, Arity int
}

// Slice returns rows [i, j) of r, sharing its bytes.
func (r Rows) Slice(i, j int) Rows {
	w := 8 * r.Arity
	return Rows{Data: r.Data[i*w : j*w : j*w], N: j - i, Arity: r.Arity}
}

// Value decodes the value at position pos of row i: the signed value the
// bytes encode, so rows compare through it in Value order.
func (r Rows) Value(i, pos int) Value {
	return Value(binary.BigEndian.Uint64(r.Data[8*(i*r.Arity+pos):]))
}

// DecodeRow fills t (of length Arity) with row i — DecodeFrom on one row —
// and returns it.
func (r Rows) DecodeRow(i int, t Tuple) Tuple {
	t.DecodeFrom(r.Data[8*i*r.Arity:])
	return t
}
