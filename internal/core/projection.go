package core

import (
	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// QueryDistinct answers the access request for the view *as originally
// given*, i.e. with projection semantics: when the original view was
// non-full (its head omitted some body variables), the returned iterator
// yields each distinct valuation of the original head's free variables
// exactly once.
//
// This implements the projection extension sketched in Section 3.2 of the
// paper. Because ExtendToFull appends the missing variables *after* the
// original head, the original free variables form a prefix of the compiled
// view's lexicographic enumeration order; for order-preserving strategies
// (primitive, materialized, direct) duplicates of the projection are
// therefore adjacent and deduplication needs O(1) extra memory. For the
// decomposition strategy, whose order is decomposition-induced, a hash set
// of emitted projections is used instead (O(output) memory).
func (r *Representation) QueryDistinct(vb relation.Tuple) Iterator {
	k := 0
	for _, a := range r.orig.Pattern {
		if a == cq.Free {
			k++
		}
	}
	inner := r.Query(vb)
	if k == len(r.sh.nv.Free) {
		return inner // full view: nothing to project
	}
	if r.strategy == DecompositionStrategy {
		return &hashDistinctIter{inner: inner, k: k, seen: make(map[string]bool)}
	}
	return &prefixDistinctIter{inner: inner, k: k}
}

// prefixDistinctIter deduplicates adjacent equal prefixes — correct when
// the inner stream is lexicographically ordered.
type prefixDistinctIter struct {
	inner Iterator
	k     int
	last  relation.Tuple
}

// Next yields the next distinct k-prefix.
func (it *prefixDistinctIter) Next() (relation.Tuple, bool) {
	for {
		t, ok := it.inner.Next()
		if !ok {
			return nil, false
		}
		p := t[:it.k]
		if it.last != nil && p.Equal(it.last) {
			continue
		}
		it.last = p.Clone()
		return it.last.Clone(), true
	}
}

// hashDistinctIter deduplicates with a seen-set — correct for any inner
// order.
type hashDistinctIter struct {
	inner Iterator
	k     int
	seen  map[string]bool
}

// Next yields the next previously-unseen k-prefix.
func (it *hashDistinctIter) Next() (relation.Tuple, bool) {
	for {
		t, ok := it.inner.Next()
		if !ok {
			return nil, false
		}
		p := t[:it.k]
		key := string(p.AppendEncode(nil))
		if it.seen[key] {
			continue
		}
		it.seen[key] = true
		return p.Clone(), true
	}
}

// Count drains the access request and reports the number of answers — the
// COUNT aggregate over the full view under the given binding.
func (r *Representation) Count(vb relation.Tuple) int {
	n := 0
	it := r.Query(vb)
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	// In-memory enumeration is infallible; a terminal error here means a
	// reporting backend was plugged in without extending Count's
	// signature, which is a programming error.
	if err := IterErr(it); err != nil {
		panic("core: Count enumeration failed: " + err.Error())
	}
	return n
}

// CountDistinct reports the number of distinct projected answers of the
// original view under the binding.
func (r *Representation) CountDistinct(vb relation.Tuple) int {
	n := 0
	it := r.QueryDistinct(vb)
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if err := IterErr(it); err != nil {
		panic("core: CountDistinct enumeration failed: " + err.Error())
	}
	return n
}
