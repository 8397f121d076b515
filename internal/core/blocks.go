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

// RowIterator is the encoded form of a block stream: NextRows yields up to
// max (>= 1) answers as rows of the binary wire encoding (relation.Rows),
// in the declared enumeration order, and no rows once the stream has
// ended. The rows are borrowed — valid only until the next NextRows call —
// and IterErr then tells a complete stream from a failed one, as for a
// BlockIterator. The coordinator's worker links and their merge are row
// streams: answers arrive encoded and leave encoded.
type RowIterator interface {
	NextRows(max int) relation.Rows
}

// Ready reports whether the next block of b — a BlockIterator or a
// RowIterator — comes without waiting, on a computation or on the network.
// A stream says so through a Ready() bool method — a stored bucket always,
// a wire reader when it already holds the next frame; one without the
// method may wait. The serving loop pushes what it has encoded to the
// socket only before a block that may wait, so a slow source's answers
// still leave one frame at a time.
func Ready(b any) bool {
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
// composite's free-key enumeration in process, and (as MergeRows) the
// coordinator's over its worker streams. Heads compare in full EnumOrder —
// the declared positions first, then every position in index order — so
// distinct tuples never tie; equal heads, impossible across a hash
// partition, go to the lowest input. Each NextBlock lends the longest run
// of the leading input's current block that sorts below every other head,
// found by binary search: one input passes its blocks straight through,
// and inputs whose key leads enumOrder pass whole blocks. A run is
// borrowed from its input and valid until the next call. The first input
// that ends in an error ends the merge with that error (IterErr), since
// merging past a dead input would emit a gapped result that looks
// complete.
func MergeBlocks(enumOrder []int, its []BlockIterator) BlockIterator {
	if len(its) == 1 {
		return its[0]
	}
	return &blockMerge{newMerge[BlockIterator, []relation.Tuple, tupleRuns](enumOrder, its)}
}

// MergeRows is MergeBlocks over encoded rows, with the same order, run
// lending and first-error rules: the coordinator merges its worker links
// through it and relays the runs without decoding them. Rows compare by
// the values they decode to (relation.Rows.Value), never bytewise, which
// would put negative values last.
func MergeRows(enumOrder []int, its []RowIterator) RowIterator {
	if len(its) == 1 {
		return its[0]
	}
	return &rowMerge{newMerge[RowIterator, relation.Rows, rowRuns](enumOrder, its)}
}

// blockMerge and rowMerge name the merge's one method for its stream kind.
type blockMerge struct {
	merge[BlockIterator, []relation.Tuple, tupleRuns]
}

func (m *blockMerge) NextBlock(want int) []relation.Tuple { return m.next(want) }

type rowMerge struct {
	merge[RowIterator, relation.Rows, rowRuns]
}

func (m *rowMerge) NextRows(want int) relation.Rows { return m.next(want) }

// runs is what the merge reads of one kind of stream S with runs R: the
// next run of up to max rows from an input, a run's length and sub-runs,
// and one value of one of its rows.
type runs[S, R any] interface {
	pull(it S, max int) R
	size(r R) int
	slice(r R, i, j int) R
	value(r R, row, pos int) relation.Value
	width(r R) int // values per row
}

// tupleRuns reads tuple blocks.
type tupleRuns struct{}

func (tupleRuns) pull(it BlockIterator, max int) []relation.Tuple       { return it.NextBlock(max) }
func (tupleRuns) size(b []relation.Tuple) int                           { return len(b) }
func (tupleRuns) slice(b []relation.Tuple, i, j int) []relation.Tuple   { return b[i:j] }
func (tupleRuns) value(b []relation.Tuple, row, pos int) relation.Value { return b[row][pos] }
func (tupleRuns) width(b []relation.Tuple) int                          { return len(b[0]) }

// rowRuns reads encoded rows.
type rowRuns struct{}

func (rowRuns) pull(it RowIterator, max int) relation.Rows         { return it.NextRows(max) }
func (rowRuns) size(r relation.Rows) int                           { return r.N }
func (rowRuns) slice(r relation.Rows, i, j int) relation.Rows      { return r.Slice(i, j) }
func (rowRuns) value(r relation.Rows, row, pos int) relation.Value { return r.Value(row, pos) }
func (rowRuns) width(r relation.Rows) int                          { return r.Arity }

// merge is the one k-way merge, over inputs S whose runs O reads as R.
type merge[S, R any, O runs[S, R]] struct {
	order []int
	in    []mergeInput[S, R] // nil once an input failed
	err   error
}

// mergeInput is one merged stream and the undelivered rest of its run.
type mergeInput[S, R any] struct {
	it   S
	run  R
	done bool
}

func newMerge[S, R any, O runs[S, R]](order []int, its []S) merge[S, R, O] {
	m := merge[S, R, O]{order: order, in: make([]mergeInput[S, R], len(its))}
	for i, it := range its {
		m.in[i].it = it
	}
	return m
}

func (m *merge[S, R, O]) next(want int) R {
	var o O
	var none R
	lead, next := -1, -1
	for i := range m.in {
		in := &m.in[i]
		if o.size(in.run) == 0 {
			if in.done {
				continue
			}
			if in.run = o.pull(in.it, want); o.size(in.run) == 0 {
				in.done = true
				if m.err = IterErr(in.it); m.err != nil {
					m.in = nil
					return none
				}
				continue
			}
		}
		switch {
		case lead < 0 || m.less(in.run, 0, m.in[lead].run):
			lead, next = i, lead
		case next < 0 || m.less(in.run, 0, m.in[next].run):
			next = i
		}
	}
	if lead < 0 {
		return none
	}
	run := m.in[lead].run
	size := o.size(run)
	n := min(want, size)
	if next >= 0 {
		bar := m.in[next].run
		n = max(1, sort.Search(n, func(j int) bool { return !m.less(run, j, bar) }))
	}
	m.in[lead].run = o.slice(run, n, size)
	return o.slice(run, 0, n)
}

// less reports whether row i of a sorts before the head of b in full
// EnumOrder. The index-order pass re-reads the declared positions, which
// are equal by then, so it settles exactly the remaining ones without
// building a permutation.
func (m *merge[S, R, O]) less(a R, i int, b R) bool {
	var o O
	for _, p := range m.order {
		if x, y := o.value(a, i, p), o.value(b, 0, p); x != y {
			return x < y
		}
	}
	for p := range o.width(a) {
		if x, y := o.value(a, i, p), o.value(b, 0, p); x != y {
			return x < y
		}
	}
	return false
}

// Ready holds when every input the next call must refill is Ready.
func (m *merge[S, R, O]) Ready() bool {
	var o O
	for i := range m.in {
		if in := &m.in[i]; o.size(in.run) == 0 && !in.done && !Ready(in.it) {
			return false
		}
	}
	return true
}

// Err is the first input's terminal error, once the merge has ended.
func (m *merge[S, R, O]) Err() error { return m.err }
