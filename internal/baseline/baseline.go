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
	"maps"
	"slices"
	"sort"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// MaterializedView stores the full view output bucketed by bound valuation
// with the free tuples of each bucket in lexicographic order.
type MaterializedView struct {
	mu      int // free variables: the stride of every bucket's slab
	bound   int // bound variables: a bucket key holds 8 bytes per one
	buckets map[string]bucket
	tuples  int
	elapsed time.Duration
}

// bucket is one bound valuation's free tuples, back to back in one slab of
// stride μ. A slab is never written once the view that holds it is
// published: ApplyOutputDelta edits private copies, so every row a query
// lends out keeps its values for good.
type bucket struct {
	vals []relation.Value
	n    int
}

// search returns the position of the first row of b not below t, and
// whether that row is t.
func (b bucket) search(mu int, t relation.Tuple) (int, bool) {
	i := sort.Search(b.n, func(j int) bool { return !relation.RowAt(b.vals, mu, j).Less(t) })
	return i, i < b.n && relation.RowAt(b.vals, mu, i).Equal(t)
}

// Materialize evaluates the full view with the worst-case-optimal join and
// indexes the result by bound valuation. One Enum fills every bucket, box
// by box, and an empty bucket is dropped.
//
// The bound valuations it tries come from one atom that holds every bound
// variable, when the view has one (coveringAtom): its BoundFirst index
// lists them in runs, so walking the distinct runs offers each valuation
// of that atom once, at most |R_F| in all and a superset of the non-empty
// ones. A view with no such atom (a path with bound endpoints in
// different atoms) takes the output-bounded candidates of
// join.BoundCandidates instead, since the cross product of the per-atom
// valuations could be far larger.
func Materialize(inst *join.Instance) (*MaterializedView, error) {
	start := time.Now()
	m := &MaterializedView{mu: inst.Mu, bound: len(inst.NV.Bound), buckets: make(map[string]bucket)}
	// Each bucket's free tuples are written straight into its slab, box
	// by box: the canonical boxes of the full interval partition the free
	// space in lexicographic order, so the bucket comes out sorted.
	boxes := interval.Decompose(interval.Full(inst.Mu))
	e := join.NewEnum(inst, relation.Tuple{}, boxes[0])
	fill := func(vb relation.Tuple) {
		var b bucket
		e.Rebind(vb, boxes[0])
		for i, box := range boxes {
			if i > 0 {
				e.Reset(box)
			}
			for ok := true; ok; {
				if b.vals, ok = e.AppendNext(b.vals); ok {
					b.n++
				}
			}
		}
		if b.n > 0 {
			if cap(b.vals) > len(b.vals) {
				b.vals = slices.Clone(b.vals) // drop append's spare room
			}
			m.buckets[string(vb.AppendEncode(nil))] = b
			m.tuples += b.n
		}
	}
	// fill's Enum checks the all-bound atoms with the others.
	if cover := coveringAtom(inst); cover != nil {
		ix, vb := cover.BoundFirst, make(relation.Tuple, len(inst.NV.Bound))
		for lo, n := 0, ix.Len(); lo < n; {
			hi := n
			for i := range vb {
				vb[i] = ix.ValueAt(lo, i)
				hi = ix.GallopGT(lo, hi, i, vb[i])
			}
			fill(vb)
			lo = hi
		}
	} else {
		join.BoundCandidates(inst, interval.Box{}, func(vb relation.Tuple) bool {
			fill(vb)
			return true
		})
	}
	m.elapsed = time.Since(start)
	return m, nil
}

// coveringAtom returns the smallest atom holding every bound variable, or
// nil. Its BoundFirst index orders rows by the bound columns in the view's
// global bound order, so a bound-prefix run is one bound valuation; with
// no bound variable every atom covers, in one run.
func coveringAtom(inst *join.Instance) *join.AtomInfo {
	var best *join.AtomInfo
	for _, a := range inst.Atoms {
		if len(a.BoundPos) == len(inst.NV.Bound) && (best == nil || a.BoundFirst.Len() < best.BoundFirst.Len()) {
			best = a
		}
	}
	return best
}

// Query returns the access request's free tuples in lexicographic order
// with O(1) delay, lent block by block from the bucket's slab.
func (m *MaterializedView) Query(vb relation.Tuple) *SliceIter {
	b := m.buckets[string(vb.AppendEncode(nil))]
	return &SliceIter{vals: b.vals, arity: m.mu, n: b.n}
}

// Contains reports whether the bound valuation has any answer — a native
// bucket probe for membership (Exists) requests, with no iterator
// allocation.
func (m *MaterializedView) Contains(vb relation.Tuple) bool {
	return m.buckets[string(vb.AppendEncode(nil))].n > 0
}

// Stats reports the materialization footprint.
type Stats struct {
	Tuples    int
	Bytes     int
	BuildTime time.Duration
}

// Stats reports output tuples stored and their byte footprint: the slabs,
// one word per stored value, plus per bucket its directory entry (the key
// string's header and bytes, the slab's header and the count).
func (m *MaterializedView) Stats() Stats {
	const word = 8
	return Stats{
		Tuples:    m.tuples,
		Bytes:     m.tuples*m.mu*word + len(m.buckets)*(m.bound*word+6*word),
		BuildTime: m.elapsed,
	}
}

// LendBatch is how many rows a SliceIter's scratch holds at least (the
// serving loop's default frame), so a stream that asks for one row and
// then for frames allocates its scratch once. It is also the largest
// block core's per-tuple view asks for.
const LendBatch = 128

// SliceIter lends a stored run of rows block by block: a bucket's slab, or
// the one empty tuple of a true all-bound request. It has no per-tuple
// face of its own; core's tuple view copies its blocks out for Next.
type SliceIter struct {
	vals    []relation.Value
	arity   int
	n, pos  int
	scratch []relation.Tuple // NextBlock's lent headers
}

// NextRows lends the next up-to-want rows as one run of the stored slab,
// stride arity, n rows (0 at the end): no copy and no allocation, so the
// tuple view copies a block out with one copy. The run is read-only.
func (it *SliceIter) NextRows(want int) (vals []relation.Value, arity, n int) {
	n = min(want, it.n-it.pos)
	vals = it.vals[it.pos*it.arity : (it.pos+n)*it.arity]
	it.pos += n
	return vals, it.arity, n
}

// NextBlock returns the next up-to-want tuples, or an empty block at the
// end. The tuples are capped views of the stored slab, no copy; the block
// holding them is the iterator's own scratch, allocated once. The block is
// borrowed: read-only, and valid only until the next call. Stored slabs
// are never written (ApplyOutputDelta is copy-on-write), so a lent tuple
// stays intact under concurrent maintenance.
func (it *SliceIter) NextBlock(want int) []relation.Tuple {
	if k := min(want, it.n-it.pos); cap(it.scratch) < k {
		it.scratch = make([]relation.Tuple, min(it.n-it.pos, max(k, LendBatch)))
	}
	vals, arity, n := it.NextRows(want)
	blk := it.scratch[:n]
	for i := range blk {
		blk[i] = relation.RowAt(vals, arity, i)
	}
	return blk
}

// Ready reports that NextBlock never waits: every answer is already stored.
func (it *SliceIter) Ready() bool { return true }

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

// Query lends one block holding the empty tuple when the valuation is in
// the view, and nothing otherwise.
func (a *AllBound) Query(vb relation.Tuple) *SliceIter {
	if a.Contains(vb) {
		return &SliceIter{n: 1}
	}
	return &SliceIter{}
}

// Contains reports whether the valuation is in the view — Proposition 1's
// constant number of index probes, with no iterator allocation.
func (a *AllBound) Contains(vb relation.Tuple) bool {
	return len(vb) == len(a.inst.NV.Bound) && a.inst.CheckAllBoundAtoms(vb)
}

// ApplyOutputDelta returns a MaterializedView over nv (the same view
// normalized over an updated database) built copy-on-write from this one:
// dels remove existing output tuples, adds insert new ones, each bucket
// keeping its lexicographic free order so enumeration stays byte-for-byte
// identical to a fresh Materialize. The receiver is untouched — concurrent
// queries keep draining it. delVb/delFree and addVb/addFree are parallel
// slices of (bound valuation, free tuple) pairs; a del that is not present
// or an add that already is means the delta was mis-derived, and the call
// fails so the caller can fall back to a full rematerialization.
func (m *MaterializedView) ApplyOutputDelta(nv *cq.NormalizedView, delVb, delFree, addVb, addFree []relation.Tuple) (*MaterializedView, error) {
	start := time.Now()
	out := &MaterializedView{mu: len(nv.Free), bound: len(nv.Bound), buckets: m.buckets, tuples: m.tuples}
	if len(delVb)+len(addVb) > 0 {
		// Clone the bucket map once; a bucket's slab is copied only when
		// first edited (touched tracks which are ours to edit in place).
		out.buckets = maps.Clone(m.buckets)
	}
	mu := out.mu
	touched := make(map[string]bool)
	own := func(key string) bucket {
		b := out.buckets[key]
		if !touched[key] {
			b.vals = slices.Clone(b.vals)
			touched[key] = true
		}
		return b
	}
	for i, vb := range delVb {
		key := string(vb.AppendEncode(nil))
		b := own(key)
		idx, ok := b.search(mu, delFree[i])
		if !ok {
			return nil, fmt.Errorf("baseline: delta removes absent output %v|%v", vb, delFree[i])
		}
		b.vals = slices.Delete(b.vals, idx*mu, idx*mu+mu)
		if b.n--; b.n == 0 {
			delete(out.buckets, key)
		} else {
			out.buckets[key] = b
		}
		out.tuples--
	}
	for i, vb := range addVb {
		key := string(vb.AppendEncode(nil))
		b := own(key)
		idx, dup := b.search(mu, addFree[i])
		if dup {
			return nil, fmt.Errorf("baseline: delta inserts duplicate output %v|%v", vb, addFree[i])
		}
		b.vals = slices.Insert(b.vals, idx*mu, addFree[i]...)
		b.n++
		out.buckets[key] = b
		out.tuples++
	}
	out.elapsed = time.Since(start)
	return out, nil
}
