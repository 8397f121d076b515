// Package baseline implements the two extremal solutions the paper
// positions its data structure against (Section 2.3), plus the
// Proposition 1 structure for all-bound views:
//
//   - MaterializedView: materialize Q(D) and index it by the bound
//     variables — optimal delay O(1), worst-case space |D|^{ρ*}.
//   - DirectEval: store nothing beyond the linear-space base indexes and
//     evaluate every access request from scratch with a worst-case-optimal
//     join — linear space, delay up to the AGM bound.
//   - AllBound: for views whose head variables are all bound, the answer is
//     a constant number of index probes (Proposition 1).
package baseline

import (
	"fmt"
	"sort"
	"time"

	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// MaterializedView stores the full view output bucketed by bound valuation
// with the free tuples of each bucket in lexicographic order.
type MaterializedView struct {
	inst    *join.Instance
	buckets map[string][]relation.Tuple
	tuples  int
	elapsed time.Duration
}

// Materialize evaluates the full view with the worst-case-optimal join and
// indexes the result by bound valuation.
func Materialize(inst *join.Instance) (*MaterializedView, error) {
	start := time.Now()
	m := &MaterializedView{inst: inst, buckets: make(map[string][]relation.Tuple)}
	// Enumerate distinct bound valuations, then their free tuples; this
	// yields each bucket already in lexicographic free order.
	if len(inst.NV.Bound) == 0 {
		var out []relation.Tuple
		for _, b := range interval.Decompose(interval.Full(inst.Mu)) {
			out = append(out, join.Drain(join.NewEnum(inst, relation.Tuple{}, b))...)
		}
		if len(out) > 0 {
			m.buckets[""] = out
			m.tuples = len(out)
		}
	} else {
		join.BoundCandidates(inst, interval.Box{}, func(vb relation.Tuple) bool {
			if !inst.CheckAllBoundAtoms(vb) {
				return true
			}
			var out []relation.Tuple
			for _, b := range interval.Decompose(interval.Full(inst.Mu)) {
				out = append(out, join.Drain(join.NewEnum(inst, vb, b))...)
			}
			if len(out) > 0 {
				m.buckets[string(vb.AppendEncode(nil))] = out
				m.tuples += len(out)
			}
			return true
		})
	}
	m.elapsed = time.Since(start)
	return m, nil
}

// Query returns an iterator over the access request's free tuples in
// lexicographic order with O(1) delay.
func (m *MaterializedView) Query(vb relation.Tuple) *SliceIter {
	return &SliceIter{tuples: m.buckets[string(vb.AppendEncode(nil))]}
}

// Contains reports whether the bound valuation has any answer — a native
// bucket probe for membership (Exists) requests, with no iterator
// allocation.
func (m *MaterializedView) Contains(vb relation.Tuple) bool {
	return len(m.buckets[string(vb.AppendEncode(nil))]) > 0
}

// Stats reports the materialization footprint.
type Stats struct {
	Tuples    int
	Bytes     int
	BuildTime time.Duration
}

// Stats reports output tuples stored and an estimated byte footprint.
func (m *MaterializedView) Stats() Stats {
	mu := m.inst.Mu
	const word = 8
	return Stats{
		Tuples:    m.tuples,
		Bytes:     m.tuples*(mu*word+3*word) + len(m.buckets)*(len(m.inst.NV.Bound)*word+6*word),
		BuildTime: m.elapsed,
	}
}

// SliceIter iterates a pre-materialized tuple slice.
type SliceIter struct {
	tuples []relation.Tuple
	pos    int
}

// Next returns the next tuple or false at the end. The tuple is the
// caller's: it is cloned out of the stored slice.
func (it *SliceIter) Next() (relation.Tuple, bool) {
	if it.pos >= len(it.tuples) {
		return nil, false
	}
	t := it.tuples[it.pos]
	it.pos++
	return t.Clone(), true
}

// NextBlock returns the next up-to-max tuples as a sub-slice of the stored
// slice — no copy, no allocation — or an empty block at the end. The block
// and its tuples are borrowed: read-only, and valid only until the next
// call. Stored slices are never edited in place (ApplyOutputDelta is
// copy-on-write), so a block stays intact under concurrent maintenance.
func (it *SliceIter) NextBlock(max int) []relation.Tuple {
	end := min(it.pos+max, len(it.tuples))
	blk := it.tuples[it.pos:end:end]
	it.pos = end
	return blk
}

// Ready reports that NextBlock never waits: every answer is already stored.
func (it *SliceIter) Ready() bool { return true }

// Drain collects the remaining tuples.
func (it *SliceIter) Drain() []relation.Tuple {
	var out []relation.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// DirectEval answers every request by running the worst-case-optimal join
// over the base indexes — the "evaluate on the input database" extreme.
type DirectEval struct {
	inst *join.Instance
}

// NewDirectEval wraps an instance; there is no preprocessing beyond the
// linear-space sorted indexes the instance already holds.
func NewDirectEval(inst *join.Instance) *DirectEval { return &DirectEval{inst: inst} }

// Query evaluates the request from scratch, in lexicographic order.
func (d *DirectEval) Query(vb relation.Tuple) *DirectIter {
	return &DirectIter{inst: d.inst, vb: vb, boxes: interval.Decompose(interval.Full(d.inst.Mu))}
}

// DirectIter streams the join result box by box.
type DirectIter struct {
	inst   *join.Instance
	vb     relation.Tuple
	boxes  []interval.Box
	idx    int
	cur    *join.Enum
	inited bool
	done   bool
	ops    uint64
}

// Next returns the next tuple of the from-scratch evaluation.
func (it *DirectIter) Next() (relation.Tuple, bool) {
	if it.done {
		return nil, false
	}
	if !it.inited {
		it.inited = true
		if len(it.vb) != len(it.inst.NV.Bound) || !it.inst.CheckAllBoundAtoms(it.vb) {
			it.done = true
			return nil, false
		}
		if len(it.boxes) > 0 {
			it.cur = join.NewEnum(it.inst, it.vb, it.boxes[0])
		}
	}
	for it.cur != nil {
		t, ok := it.cur.Next()
		if ok {
			return t, true
		}
		it.ops += it.cur.Ops()
		it.idx++
		if it.idx < len(it.boxes) {
			it.cur = join.NewEnum(it.inst, it.vb, it.boxes[it.idx])
		} else {
			it.cur = nil
		}
	}
	it.done = true
	return nil, false
}

// Ops returns the accumulated work counter.
func (it *DirectIter) Ops() uint64 {
	if it.cur != nil {
		return it.ops + it.cur.Ops()
	}
	return it.ops
}

// Drain collects the remaining tuples.
func (it *DirectIter) Drain() []relation.Tuple {
	var out []relation.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// AllBound is the Proposition 1 structure for views with every head
// variable bound: linear space (the base indexes), O(1) delay membership.
type AllBound struct {
	inst *join.Instance
}

// NewAllBound wraps an instance of an all-bound view.
func NewAllBound(inst *join.Instance) *AllBound { return &AllBound{inst: inst} }

// Query returns a one-tuple iterator holding the empty tuple when the
// valuation is in the view, an empty iterator otherwise.
func (a *AllBound) Query(vb relation.Tuple) *SliceIter {
	if a.Contains(vb) {
		return &SliceIter{tuples: []relation.Tuple{{}}}
	}
	return &SliceIter{}
}

// Contains reports whether the valuation is in the view — Proposition 1's
// constant number of index probes, with no iterator allocation.
func (a *AllBound) Contains(vb relation.Tuple) bool {
	return len(vb) == len(a.inst.NV.Bound) && a.inst.CheckAllBoundAtoms(vb)
}

// ApplyOutputDelta returns a MaterializedView over inst (the same view
// compiled over an updated database) built copy-on-write from this one:
// dels remove existing output tuples, adds insert new ones, each bucket
// keeping its lexicographic free order so enumeration stays byte-for-byte
// identical to a fresh Materialize. The receiver is untouched — concurrent
// queries keep draining it. delVb/delFree and addVb/addFree are parallel
// slices of (bound valuation, free tuple) pairs; a del that is not present
// or an add that already is means the delta was mis-derived, and the call
// fails so the caller can fall back to a full rematerialization.
func (m *MaterializedView) ApplyOutputDelta(inst *join.Instance, delVb, delFree, addVb, addFree []relation.Tuple) (*MaterializedView, error) {
	start := time.Now()
	out := &MaterializedView{inst: inst, buckets: m.buckets, tuples: m.tuples}
	if len(delVb)+len(addVb) > 0 {
		// Clone the bucket map once; individual bucket slices are cloned
		// only when first edited (touched tracks which are ours).
		nb := make(map[string][]relation.Tuple, len(m.buckets))
		for k, v := range m.buckets {
			nb[k] = v
		}
		out.buckets = nb
	}
	touched := make(map[string]bool)
	own := func(key string) []relation.Tuple {
		b := out.buckets[key]
		if !touched[key] {
			b = append([]relation.Tuple(nil), b...)
			touched[key] = true
		}
		return b
	}
	for i, vb := range delVb {
		key := string(vb.AppendEncode(nil))
		b := own(key)
		idx := sort.Search(len(b), func(j int) bool { return !b[j].Less(delFree[i]) })
		if idx >= len(b) || !b[idx].Equal(delFree[i]) {
			return nil, fmt.Errorf("baseline: delta removes absent output %v|%v", vb, delFree[i])
		}
		b = append(b[:idx], b[idx+1:]...)
		if len(b) == 0 {
			delete(out.buckets, key)
		} else {
			out.buckets[key] = b
		}
		out.tuples--
	}
	for i, vb := range addVb {
		key := string(vb.AppendEncode(nil))
		b := own(key)
		idx := sort.Search(len(b), func(j int) bool { return !b[j].Less(addFree[i]) })
		if idx < len(b) && b[idx].Equal(addFree[i]) {
			return nil, fmt.Errorf("baseline: delta inserts duplicate output %v|%v", vb, addFree[i])
		}
		b = append(b, nil)
		copy(b[idx+1:], b[idx:])
		b[idx] = addFree[i].Clone()
		out.buckets[key] = b
		out.tuples++
	}
	out.elapsed = time.Since(start)
	return out, nil
}
