// Package interval implements the output-space geometry of Section 4.1 of
// Deep & Koutris (PODS 2018): f-intervals over the lexicographically ordered
// space of free-variable valuations, canonical f-boxes, and the box
// decomposition of an f-interval into at most 2µ−1 canonical boxes
// (Lemma 1), extended here to closed/half-open endpoints.
package interval

import (
	"strings"

	"cqrep/internal/relation"
)

// Interval is an f-interval: the set of µ-tuples lexicographically between
// Lo and Hi, with per-endpoint inclusiveness. The full space D_f is
// Full(µ); the unit interval [a, a] is Unit(a).
type Interval struct {
	Lo, Hi       relation.Tuple
	LoInc, HiInc bool
}

// Full returns the f-interval covering the entire µ-dimensional space,
// using the domain sentinels as endpoints.
func Full(mu int) Interval {
	lo := make(relation.Tuple, mu)
	hi := make(relation.Tuple, mu)
	for i := 0; i < mu; i++ {
		lo[i] = relation.NegInf
		hi[i] = relation.PosInf
	}
	return Interval{Lo: lo, Hi: hi, LoInc: true, HiInc: true}
}

// Unit returns the interval containing exactly the tuple a.
func Unit(a relation.Tuple) Interval {
	return Interval{Lo: a.Clone(), Hi: a.Clone(), LoInc: true, HiInc: true}
}

// Mu returns the dimension of the interval.
func (iv Interval) Mu() int { return len(iv.Lo) }

// Empty reports whether the interval denotes no tuples at all (by endpoint
// comparison; an interval may still contain no database tuples).
func (iv Interval) Empty() bool {
	c := iv.Lo.Compare(iv.Hi)
	if c > 0 {
		return true
	}
	if c == 0 {
		return !(iv.LoInc && iv.HiInc)
	}
	return false
}

// Contains reports whether tuple t lies in the interval.
func (iv Interval) Contains(t relation.Tuple) bool {
	cl := t.Compare(iv.Lo)
	if cl < 0 || (cl == 0 && !iv.LoInc) {
		return false
	}
	ch := t.Compare(iv.Hi)
	if ch > 0 || (ch == 0 && !iv.HiInc) {
		return false
	}
	return true
}

// String renders the interval with standard bracket notation.
func (iv Interval) String() string {
	var b strings.Builder
	if iv.LoInc {
		b.WriteByte('[')
	} else {
		b.WriteByte('(')
	}
	b.WriteString(iv.Lo.String())
	b.WriteString(", ")
	b.WriteString(iv.Hi.String())
	if iv.HiInc {
		b.WriteByte(']')
	} else {
		b.WriteByte(')')
	}
	return b.String()
}

// Box is a canonical f-box (Definition 2): the first len(Prefix) free
// variables are pinned to unit values; if HasRange, the next variable ranges
// over the interval between Lo and Hi (with inclusiveness flags); all later
// variables are unconstrained (the □ interval).
type Box struct {
	Prefix       relation.Tuple
	HasRange     bool
	Lo, Hi       relation.Value
	LoInc, HiInc bool
}

// UnitBox returns the box pinning every variable to a.
func UnitBox(a relation.Tuple) Box { return Box{Prefix: a.Clone()} }

// RangeDepth returns the index of the ranged variable, or len(Prefix) if the
// box has no explicit range (then all variables from that depth are
// unconstrained... for a full-prefix unit box it equals µ).
func (b Box) RangeDepth() int { return len(b.Prefix) }

// Contains reports whether the µ-tuple t lies in the box.
func (b Box) Contains(t relation.Tuple) bool {
	for i, v := range b.Prefix {
		if t[i] != v {
			return false
		}
	}
	if !b.HasRange {
		return true
	}
	v := t[len(b.Prefix)]
	if b.LoInc && v < b.Lo || !b.LoInc && v <= b.Lo {
		return false
	}
	if b.HiInc && v > b.Hi || !b.HiInc && v >= b.Hi {
		return false
	}
	return true
}

// EmptyRange reports whether the box's range is syntactically empty.
func (b Box) EmptyRange() bool {
	if !b.HasRange {
		return false
	}
	if b.Lo > b.Hi {
		return true
	}
	if b.Lo == b.Hi {
		return !(b.LoInc && b.HiInc)
	}
	// Adjacent integers with both ends open contain nothing.
	if !b.LoInc && !b.HiInc && b.Lo+1 == b.Hi {
		return true
	}
	return false
}

// String renders the box in the paper's ⟨a1, ..., I⟩ notation.
func (b Box) String() string {
	var s strings.Builder
	s.WriteByte('<')
	for i, v := range b.Prefix {
		if i > 0 {
			s.WriteString(", ")
		}
		s.WriteString(v.String())
	}
	if b.HasRange {
		if len(b.Prefix) > 0 {
			s.WriteString(", ")
		}
		if b.LoInc {
			s.WriteByte('[')
		} else {
			s.WriteByte('(')
		}
		s.WriteString(b.Lo.String())
		s.WriteString(", ")
		s.WriteString(b.Hi.String())
		if b.HiInc {
			s.WriteByte(']')
		} else {
			s.WriteByte(')')
		}
	}
	s.WriteByte('>')
	return s.String()
}

// Decompose returns the box decomposition B(I) of the interval: a sequence
// of disjoint canonical boxes, ordered lexicographically, whose union is
// exactly the interval (Lemma 1). The boxes number at most 2µ+1 (2µ−1 for
// open intervals as in the paper, plus up to two unit boxes for inclusive
// endpoints).
func Decompose(iv Interval) []Box { return AppendDecompose(nil, iv) }

// AppendDecompose appends the box decomposition of iv to dst and returns
// the extended slice, so a caller that decomposes many intervals can reuse
// one buffer. The boxes' prefixes share storage with iv's endpoints
// (capacity-capped, so appending to one copies); they must not be
// modified.
func AppendDecompose(dst []Box, iv Interval) []Box {
	mu := iv.Mu()
	if iv.Empty() {
		return dst
	}
	if mu == 0 {
		// Zero free variables: the only valuation is the empty tuple.
		return append(dst, Box{Prefix: relation.Tuple{}})
	}
	cmp := iv.Lo.Compare(iv.Hi)
	if cmp == 0 {
		return append(dst, Box{Prefix: iv.Lo[:mu:mu]})
	}

	// First differing position (0-based).
	j := 0
	for iv.Lo[j] == iv.Hi[j] {
		j++
	}

	// Left endpoint unit box for inclusive Lo.
	if iv.LoInc {
		dst = append(dst, Box{Prefix: iv.Lo[:mu:mu]})
	}
	// Left boxes B^ℓ_µ ... B^ℓ_{j+1}: ⟨a1..a_{i-1}, (a_i, ⊤]⟩ for i from µ
	// down to j+2 in paper's 1-based terms; 0-based: prefix length i from
	// µ-1 down to j+1.
	for i := mu - 1; i >= j+1; i-- {
		b := Box{
			Prefix:   iv.Lo[:i:i],
			HasRange: true,
			Lo:       iv.Lo[i], LoInc: false,
			Hi: relation.PosInf, HiInc: true,
		}
		if !b.EmptyRange() {
			dst = append(dst, b)
		}
	}
	// Middle box ⟨a1..a_{j-1}, (a_j, b_j)⟩.
	mid := Box{
		Prefix:   iv.Lo[:j:j],
		HasRange: true,
		Lo:       iv.Lo[j], LoInc: false,
		Hi: iv.Hi[j], HiInc: false,
	}
	if !mid.EmptyRange() {
		dst = append(dst, mid)
	}
	// Right boxes B^r_{j+1} ... B^r_µ: ⟨b1..b_i, [⊥, b_{i+1})⟩; 0-based
	// prefix length i from j+1 up to µ-1.
	for i := j + 1; i <= mu-1; i++ {
		b := Box{
			Prefix:   iv.Hi[:i:i],
			HasRange: true,
			Lo:       relation.NegInf, LoInc: true,
			Hi: iv.Hi[i], HiInc: false,
		}
		if !b.EmptyRange() {
			dst = append(dst, b)
		}
	}
	// Right endpoint unit box for inclusive Hi.
	if iv.HiInc {
		dst = append(dst, Box{Prefix: iv.Hi[:mu:mu]})
	}
	return dst
}

// SplitAt partitions iv at the point c into the sub-intervals
// I≺ = [Lo, c), {c}, and I≻ = (c, Hi], preserving the original endpoint
// inclusiveness on the outer ends. Empty parts are returned as empty
// intervals (check with Empty).
func (iv Interval) SplitAt(c relation.Tuple) (left, unit, right Interval) {
	left = Interval{Lo: iv.Lo, LoInc: iv.LoInc, Hi: c.Clone(), HiInc: false}
	unit = Unit(c)
	right = Interval{Lo: c.Clone(), LoInc: false, Hi: iv.Hi, HiInc: iv.HiInc}
	return left, unit, right
}
