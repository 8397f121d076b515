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
	if err := r.ensure(); err != nil {
		return errIterator{err}
	}
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
	it := &distinctIter{inner: inner, k: k}
	if r.strategy == DecompositionStrategy {
		it.seen = make(map[string]bool)
	}
	return it
}

// distinctIter yields each distinct k-prefix of the inner stream once. On
// a lexicographically ordered stream it compares each prefix with the last
// one; on any other order (seen is set) it keeps a seen-set.
type distinctIter struct {
	inner Iterator
	k     int
	last  relation.Tuple
	seen  map[string]bool
}

// Next yields the next distinct k-prefix.
func (it *distinctIter) Next() (relation.Tuple, bool) {
	for {
		t, ok := it.inner.Next()
		if !ok {
			return nil, false
		}
		p := t[:it.k]
		if it.seen != nil {
			key := string(p.AppendEncode(nil))
			if it.seen[key] {
				continue
			}
			it.seen[key] = true
		} else if it.last != nil && p.Equal(it.last) {
			continue
		}
		it.last = p // t is ours (Next's contract) and not handed on
		return p.Clone(), true
	}
}

// Err forwards the inner stream's terminal error (see IterErr).
func (it *distinctIter) Err() error { return IterErr(it.inner) }

// Count drains the access request and reports the number of answers — the
// COUNT aggregate over the full view under the given binding. The error
// is the stream's terminal one (IterErr): an mmap-loaded snapshot whose
// payload fails to decode reports ErrBadSnapshot here.
func (r *Representation) Count(vb relation.Tuple) (int, error) { return count(r.Query(vb)) }

// CountDistinct reports the number of distinct projected answers of the
// original view under the binding, with Count's error.
func (r *Representation) CountDistinct(vb relation.Tuple) (int, error) {
	return count(r.QueryDistinct(vb))
}

// count drains it and reports its terminal error.
func count(it Iterator) (int, error) {
	n := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		n++
	}
	return n, IterErr(it)
}
