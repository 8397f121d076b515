package core

import (
	"context"
	"slices"
	"sort"

	"cqrep/internal/baseline"
	"cqrep/internal/relation"
)

// BlockIterator is the block-at-a-time form of a result stream: NextBlock
// yields up to max (>= 1) answers in the declared enumeration order, and
// an empty block once the stream has ended. The slice and its tuples are
// borrowed — read-only, and valid only until the next NextBlock call — so
// a consumer that keeps an answer must Clone it. After the empty block,
// IterErr distinguishes a complete enumeration (nil) from one that failed
// or was cancelled, exactly as for an Iterator.
type BlockIterator interface {
	NextBlock(max int) []relation.Tuple
}

// Ready reports whether b's next NextBlock returns without waiting, on a
// computation or on the network. A stream says so through a Ready() bool
// method — a stored bucket always, a wire reader when it already holds the
// next frame; one without the method may wait. The serving loop pushes what
// it has encoded to the socket only before a block that may wait, so a slow
// source's answers still leave one frame at a time.
func Ready(b BlockIterator) bool {
	r, ok := b.(interface{ Ready() bool })
	return ok && r.Ready()
}

// QueryBlocks answers an access request block by block — the serving
// path's form of Query. A backend that stores its answers contiguously
// (materialized buckets, directly, behind a routed shard key, or merged
// across shards) hands over its own stream: views of the stored rows, no
// copy, in a block the iterator allocates once, and ctx is the caller's to
// observe between blocks. Every other backend goes through one adapter
// that fills a reused buffer from Next and polls ctx per tuple, so a
// cancelled request abandons a slow enumeration within one answer's delay;
// its IterErr is then ctx's error. Query's contract is unchanged: tuples
// from Next are the caller's to keep.
func (r *Representation) QueryBlocks(ctx context.Context, vb relation.Tuple) BlockIterator {
	if r.ensure() == nil {
		if bb, ok := r.be.(blockBackend); ok {
			return bb.queryBlocks(ctx, vb)
		}
	}
	return AsBlocks(ctx, r.Query(vb))
}

// Tuples is the per-tuple face of a block stream: Query on every backend
// that lends blocks natively. It asks for blocks of 1, 2, 4, … up to
// baseline.LendBatch rows (so the first answer waits for one row's copy),
// copies each into one new slab and hands out capped views of its rows,
// Tuple{} at arity 0. A tuple is the caller's, and holding one keeps at
// most LendBatch rows alive. A blockAdapter's tuples are owned already:
// its Iterator is returned as is.
func Tuples(b BlockIterator) Iterator {
	if a, ok := b.(*blockAdapter); ok {
		return a.it
	}
	return &tupleView{b: b, want: 1}
}

// tupleView is Tuples' iterator: the current block's slab and the next
// row to hand out of it.
type tupleView struct {
	b           BlockIterator
	vals        []relation.Value
	arity, n, i int
	want        int // the next block's size
}

func (v *tupleView) Next() (relation.Tuple, bool) {
	if v.i == v.n {
		v.i, v.n = 0, 0
		if s, ok := v.b.(*baseline.SliceIter); ok {
			// Stored rows are one run of a slab: copy it whole.
			vals, arity, n := s.NextRows(v.want)
			v.vals, v.arity, v.n = slices.Clone(vals), arity, n
		} else if blk := v.b.NextBlock(v.want); len(blk) > 0 {
			v.arity, v.n = len(blk[0]), len(blk)
			v.vals = make([]relation.Value, 0, v.n*v.arity)
			for _, t := range blk {
				v.vals = append(v.vals, t...)
			}
		}
		if v.n == 0 {
			return nil, false
		}
		v.want = min(2*v.want, baseline.LendBatch)
	}
	v.i++
	return relation.RowAt(v.vals, v.arity, v.i-1), true
}

// Err forwards the block stream's terminal error (see IterErr).
func (v *tupleView) Err() error { return IterErr(v.b) }

// AsBlocks serves an Iterator block by block: natively when it has
// NextBlock, otherwise through the per-tuple adapter QueryBlocks uses.
func AsBlocks(ctx context.Context, it Iterator) BlockIterator {
	if b, ok := it.(BlockIterator); ok {
		return b
	}
	return &blockAdapter{ctx: ctx, it: it}
}

// blockAdapter serves NextBlock over a per-tuple Iterator whose tuples
// are freshly built (so lending them out costs nothing extra). Once the
// iterator has said it is done — or ctx has cut the stream — the adapter
// is Ready and never calls Next again, so a serving loop does not push to
// the socket before a call that cannot wait.
type blockAdapter struct {
	ctx  context.Context
	it   Iterator
	one  [1]relation.Tuple // the lone first tuple's block
	buf  []relation.Tuple
	done bool
	err  error // ctx's error once cancellation cut the stream
}

func (a *blockAdapter) NextBlock(max int) []relation.Tuple {
	if a.done {
		return nil
	}
	if cap(a.buf) < max {
		// The serving ramp asks for one tuple, then whole batches: the
		// first fits the adapter itself, and the buffer is made once, at
		// the batch's size.
		if max == 1 {
			a.buf = a.one[:0]
		} else {
			a.buf = make([]relation.Tuple, 0, max)
		}
	}
	a.buf = a.buf[:0]
	for len(a.buf) < max {
		// A cancelled request drops the partial block: nothing after the
		// cut is delivered.
		if a.err = a.ctx.Err(); a.err != nil {
			a.done = true
			return nil
		}
		t, ok := a.it.Next()
		if !ok {
			a.done = true
			break
		}
		a.buf = append(a.buf, t)
	}
	return a.buf
}

// Ready holds once the stream has ended: the next NextBlock returns the
// empty block without asking the iterator.
func (a *blockAdapter) Ready() bool { return a.done }

// Err is the stream's terminal error (see IterErr): the cancellation that
// cut it, or whatever the wrapped iterator reports.
func (a *blockAdapter) Err() error {
	if a.err != nil {
		return a.err
	}
	return IterErr(a.it)
}

// MergeBlocks merges streams that each enumerate a disjoint part of one
// result in enumOrder into that result, in that order: the sharded
// composite's free-key enumeration in process, and the coordinator's over
// its worker streams. Heads compare in full EnumOrder — the declared
// positions first, then every position in index order — so distinct
// tuples never tie; equal heads, impossible across a hash partition, go to
// the lowest input. Each NextBlock lends the longest run of the leading
// input's current block that sorts below every other head, found by binary
// search: one input passes its blocks straight through, and inputs whose
// key leads enumOrder pass whole blocks. A run is borrowed from its input
// and valid until the next call. The first input that ends in an error
// ends the merge with that error (IterErr), since merging past a dead input
// would emit a gapped result that looks complete.
func MergeBlocks(enumOrder []int, its []BlockIterator) BlockIterator {
	if len(its) == 1 {
		return its[0]
	}
	m := &blockMerge{order: enumOrder, in: make([]mergeInput, len(its))}
	for i, it := range its {
		m.in[i].it = it
	}
	return m
}

// blockMerge is MergeBlocks' iterator.
type blockMerge struct {
	order []int
	in    []mergeInput // nil once an input failed
	err   error
}

// mergeInput is one merged stream and the undelivered rest of its block.
type mergeInput struct {
	it   BlockIterator
	blk  []relation.Tuple
	done bool
}

func (m *blockMerge) NextBlock(want int) []relation.Tuple {
	lead, next := -1, -1
	for i := range m.in {
		in := &m.in[i]
		if len(in.blk) == 0 {
			if in.done {
				continue
			}
			if in.blk = in.it.NextBlock(want); len(in.blk) == 0 {
				in.done = true
				if m.err = IterErr(in.it); m.err != nil {
					m.in = nil
					return nil
				}
				continue
			}
		}
		switch {
		case lead < 0 || m.less(in.blk[0], m.in[lead].blk[0]):
			lead, next = i, lead
		case next < 0 || m.less(in.blk[0], m.in[next].blk[0]):
			next = i
		}
	}
	if lead < 0 {
		return nil
	}
	blk := m.in[lead].blk
	n := min(want, len(blk))
	if next >= 0 {
		bar := m.in[next].blk[0]
		n = max(1, sort.Search(n, func(j int) bool { return !m.less(blk[j], bar) }))
	}
	m.in[lead].blk = blk[n:]
	return blk[:n]
}

// less orders heads in full EnumOrder. The index-order pass re-reads the
// declared positions, which are equal by then, so it settles exactly the
// remaining ones without building a permutation.
func (m *blockMerge) less(a, b relation.Tuple) bool {
	for _, i := range m.order {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Ready holds when every input the next call must refill is Ready.
func (m *blockMerge) Ready() bool {
	for i := range m.in {
		if in := &m.in[i]; len(in.blk) == 0 && !in.done && !Ready(in.it) {
			return false
		}
	}
	return true
}

// Err is the first input's terminal error, once the merge has ended.
func (m *blockMerge) Err() error { return m.err }
