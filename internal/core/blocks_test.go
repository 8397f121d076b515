package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// encodeBlockStream drains one access request block by block, encoding
// each borrowed block before asking for the next.
func encodeBlockStream(t *testing.T, r *Representation, vb relation.Tuple, max int) string {
	t.Helper()
	var buf []byte
	blocks := r.QueryBlocks(context.Background(), vb)
	for {
		blk := blocks.NextBlock(max)
		if len(blk) == 0 {
			if err := IterErr(blocks); err != nil {
				t.Fatalf("vb=%v: block stream ended with %v", vb, err)
			}
			return string(buf)
		}
		for _, tu := range blk {
			buf = tu.AppendEncode(buf)
		}
	}
}

// snapshotBytes serializes the representation — every stored bucket tuple
// included — as the checksum of what it holds.
func snapshotBytes(t *testing.T, r *Representation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryBlocksLendsWithoutMutating serves every bucket of a materialized
// view (plain and sharded) through the zero-copy block path and demands
// the stored tuples come out bit-identical: the blocks are lent, not given.
func TestQueryBlocksLendsWithoutMutating(t *testing.T) {
	view := cq.MustParse("V[bf](x, y) :- R(x, p), R(p, y)")
	for name, opts := range map[string][]Option{
		"plain":   {WithStrategy(MaterializedStrategy)},
		"sharded": {WithStrategy(MaterializedStrategy), WithShards(3)},
	} {
		t.Run(name, func(t *testing.T) {
			r, err := Build(view, pathDB(7, 40), opts...)
			if err != nil {
				t.Fatal(err)
			}
			before := snapshotBytes(t, r)
			for _, vb := range boundSpace(1, 0, 8) {
				want := encodeStream(r, vb)
				for _, max := range []int{1, 3, 128} {
					if got := encodeBlockStream(t, r, vb, max); got != want {
						t.Fatalf("vb=%v max=%d: block stream diverges from Query: %d vs %d bytes", vb, max, len(got), len(want))
					}
				}
			}
			if !bytes.Equal(before, snapshotBytes(t, r)) {
				t.Fatal("serving through QueryBlocks changed the stored buckets")
			}
		})
	}
}

// TestQueryBlocksSurvivesDeltaFlush lands a Maintained delta flush on a
// bucket while a block stream is half-way through it. Buckets are
// copy-on-write, so the stream must deliver exactly the pre-flush
// enumeration while new requests see the post-flush one.
func TestQueryBlocksSurvivesDeltaFlush(t *testing.T) {
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	for y := 0; y < 10; y++ {
		r.MustInsert(1, relation.Value(2*y))
	}
	db.Add(r)
	m, err := NewMaintained(view, db, 0.5, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	vb := relation.Tuple{1}
	want := encodeStream(m.Rep(), vb)

	blocks := m.Rep().QueryBlocks(context.Background(), vb)
	var got []byte
	for _, tu := range blocks.NextBlock(3) {
		got = tu.AppendEncode(got)
	}

	// Edit the bucket on both sides of the stream's position.
	for _, op := range []struct {
		del bool
		y   relation.Value
	}{{true, 0}, {false, 1}, {true, 10}, {false, 11}, {false, 99}} {
		if op.del {
			err = m.Delete("R", relation.Tuple{1, op.y})
		} else {
			err = m.Insert("R", relation.Tuple{1, op.y})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.DeltaApplies() == 0 {
		t.Fatalf("flush did not take the delta path (rebuilds=%d)", m.Rebuilds())
	}
	if after := encodeStream(m.Rep(), vb); after == want {
		t.Fatal("flush did not change the bucket under test")
	}

	for {
		blk := blocks.NextBlock(3)
		if len(blk) == 0 {
			break
		}
		for _, tu := range blk {
			got = tu.AppendEncode(got)
		}
	}
	if err := IterErr(blocks); err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("mid-bucket flush changed what the open block stream delivered: %d vs %d bytes", len(got), len(want))
	}
}

// TestQueryBlocksAdapterObservesContext pins the adapter's cancellation
// contract for backends without a native block path: a cancelled request
// gets no further block and reads its context's error as the terminal.
func TestQueryBlocksAdapterObservesContext(t *testing.T) {
	view := cq.MustParse("V[bf](x, y) :- R(x, p), R(p, y)")
	r, err := Build(view, pathDB(7, 40), WithStrategy(PrimitiveStrategy), WithTau(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, vb := range boundSpace(1, 0, 8) {
		if len(encodeStream(r, vb)) < 3*8 {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		blocks := r.QueryBlocks(ctx, vb)
		if blk := blocks.NextBlock(1); len(blk) != 1 {
			t.Fatalf("first block has %d tuples, want 1", len(blk))
		}
		cancel()
		if blk := blocks.NextBlock(128); len(blk) != 0 {
			t.Fatalf("block of %d tuples delivered after cancellation", len(blk))
		}
		if err := IterErr(blocks); !errors.Is(err, context.Canceled) {
			t.Fatalf("terminal error = %v, want context.Canceled", err)
		}
		return
	}
	t.Fatal("no binding with at least 3 answers found")
}

// countingIter is a per-tuple Iterator over a fixed list that counts its
// Next calls.
type countingIter struct {
	ts    []relation.Tuple
	calls int
}

func (c *countingIter) Next() (relation.Tuple, bool) {
	c.calls++
	if len(c.ts) == 0 {
		return nil, false
	}
	t := c.ts[0]
	c.ts = c.ts[1:]
	return t, true
}

// TestBlockAdapterStopsAtTheEnd pins the adapter's end: it is not Ready
// while its iterator may still compute, is Ready once the iterator has
// said it is done, and from then on answers the empty block without
// calling Next again.
func TestBlockAdapterStopsAtTheEnd(t *testing.T) {
	it := &countingIter{ts: []relation.Tuple{{1}, {2}, {3}, {4}, {5}}}
	blocks := AsBlocks(context.Background(), it)
	for i, step := range []struct{ max, got, calls int }{
		{1, 1, 1}, // the lone first tuple
		{3, 3, 4}, // a full block: the end is not known yet
		{3, 1, 6}, // the last answer, then the iterator's false
		{3, 0, 6},
		{1, 0, 6},
	} {
		if i < 3 && Ready(blocks) {
			t.Fatalf("step %d: Ready before the iterator ended", i)
		}
		if blk := blocks.NextBlock(step.max); len(blk) != step.got {
			t.Fatalf("step %d: NextBlock(%d) lent %d tuples, want %d", i, step.max, len(blk), step.got)
		}
		if it.calls != step.calls {
			t.Fatalf("step %d: %d Next calls, want %d", i, it.calls, step.calls)
		}
		if i >= 2 && !Ready(blocks) {
			t.Fatalf("step %d: not Ready after the iterator ended", i)
		}
	}
	if err := IterErr(blocks); err != nil {
		t.Fatalf("terminal error %v after a complete stream", err)
	}
}

// lentStream is a BlockIterator over a fixed tuple list that ends in err.
type lentStream struct {
	ts  []relation.Tuple
	err error
}

func (s *lentStream) NextBlock(max int) []relation.Tuple {
	n := min(max, len(s.ts))
	blk := s.ts[:n]
	s.ts = s.ts[n:]
	return blk
}

func (s *lentStream) Err() error {
	if len(s.ts) == 0 {
		return s.err
	}
	return nil
}

// TestMergeBlocksLendsRuns pins MergeBlocks' contract on hand-made inputs:
// heads compare in full EnumOrder (declared positions, then index order),
// each block is the leader's longest run below every other head, and the
// first input error ends the merge with that error.
func TestMergeBlocksLendsRuns(t *testing.T) {
	tu := func(vs ...relation.Value) relation.Tuple { return relation.Tuple(vs) }
	// Declared order [1]: the second position leads, the first breaks ties.
	a := &lentStream{ts: []relation.Tuple{tu(0, 1), tu(5, 1), tu(1, 2), tu(9, 2), tu(0, 7)}}
	b := &lentStream{ts: []relation.Tuple{tu(2, 1), tu(2, 2), tu(3, 3), tu(4, 4)}}
	m := MergeBlocks([]int{1}, []BlockIterator{a, b})
	var runs [][]relation.Tuple
	for {
		blk := m.NextBlock(3)
		if len(blk) == 0 {
			break
		}
		runs = append(runs, append([]relation.Tuple(nil), blk...))
	}
	if err := IterErr(m); err != nil {
		t.Fatal(err)
	}
	// A run ends at the runner-up's head or at its own block's end.
	want := "[[(0, 1)] [(2, 1)] [(5, 1) (1, 2)] [(2, 2)] [(9, 2)] [(3, 3)] [(4, 4)] [(0, 7)]]"
	if got := fmt.Sprint(runs); got != want {
		t.Fatalf("runs = %s, want %s", got, want)
	}

	boom := errors.New("shard gone")
	a = &lentStream{ts: []relation.Tuple{tu(0, 0), tu(5, 5)}}
	b = &lentStream{ts: []relation.Tuple{tu(1, 1)}, err: boom}
	m = MergeBlocks(nil, []BlockIterator{a, b})
	var got []relation.Tuple
	for blk := m.NextBlock(8); len(blk) > 0; blk = m.NextBlock(8) {
		got = append(got, blk...)
	}
	if !errors.Is(IterErr(m), boom) || fmt.Sprint(got) != "[(0, 0) (1, 1)]" {
		t.Fatalf("merge past a failed input: delivered %v, terminal %v; want [(0, 0) (1, 1)] then %v", got, IterErr(m), boom)
	}

	if single := (&lentStream{}); MergeBlocks(nil, []BlockIterator{single}) != BlockIterator(single) {
		t.Fatal("a merge of one stream is not that stream")
	}
}

// framedTuples lends a tuple list frame by frame, never a block across a
// frame boundary, and ends in err.
type framedTuples struct {
	frames [][]relation.Tuple
	err    error
}

func (s *framedTuples) NextBlock(max int) []relation.Tuple {
	for len(s.frames) > 0 && len(s.frames[0]) == 0 {
		s.frames = s.frames[1:]
	}
	if len(s.frames) == 0 {
		return nil
	}
	n := min(max, len(s.frames[0]))
	blk := s.frames[0][:n]
	s.frames[0] = s.frames[0][n:]
	return blk
}

func (s *framedTuples) Err() error { return s.err }

// framedRows is framedTuples' twin over the same frames, encoded.
type framedRows struct {
	frames []relation.Rows
	err    error
}

func (s *framedRows) NextRows(max int) relation.Rows {
	for len(s.frames) > 0 && s.frames[0].N == 0 {
		s.frames = s.frames[1:]
	}
	if len(s.frames) == 0 {
		return relation.Rows{}
	}
	f := s.frames[0]
	n := min(max, f.N)
	s.frames[0] = f.Slice(n, f.N)
	return f.Slice(0, n)
}

func (s *framedRows) Err() error { return s.err }

// TestMergeRowsMatchesMergeBlocks holds the encoded-row merge to the tuple
// merge on random inputs: values around zero and next to the sentinels, so
// that a bytewise comparison of encoded values — which puts negative values
// after positive ones — shows; declared orders of every shape; frames that
// cut runs short; reads of 1, 3, 128 or a mix; a limit; and an input that
// ends in an error. Both merges must lend runs of the same lengths, the
// row runs must decode to the tuple runs, the result must be the inputs
// sorted in full EnumOrder, and both must end in the same terminal.
func TestMergeRowsMatchesMergeBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	pool := []relation.Value{relation.NegInf + 1, relation.NegInf + 2, -1 << 40, -256, -255, -2, -1, 0, 1, 2, 255, 256, 1 << 40, relation.PosInf - 2, relation.PosInf - 1}
	boom := errors.New("worker gone")
	for trial := 0; trial < 400; trial++ {
		arity := 1 + rng.Intn(3)
		var order []int
		if rng.Intn(3) > 0 {
			order = rng.Perm(arity)[:1+rng.Intn(arity)]
		}
		fullLess := func(a, b relation.Tuple) bool {
			for _, p := range order {
				if a[p] != b[p] {
					return a[p] < b[p]
				}
			}
			return a.Less(b)
		}
		seen := map[string]bool{}
		inputs := make([][]relation.Tuple, 1+rng.Intn(4))
		for range rng.Intn(60) {
			tu := make(relation.Tuple, arity)
			for p := range tu {
				if rng.Intn(4) == 0 {
					tu[p] = relation.Value(rng.Intn(21) - 10)
				} else {
					tu[p] = pool[rng.Intn(len(pool))]
				}
			}
			if key := string(tu.AppendEncode(nil)); !seen[key] {
				seen[key] = true
				i := rng.Intn(len(inputs))
				inputs[i] = append(inputs[i], tu)
			}
		}
		var all []relation.Tuple
		for _, in := range inputs {
			slices.SortFunc(in, func(a, b relation.Tuple) int {
				if fullLess(a, b) {
					return -1
				}
				return 1
			})
			all = append(all, in...)
		}
		slices.SortFunc(all, func(a, b relation.Tuple) int {
			if fullLess(a, b) {
				return -1
			}
			return 1
		})
		failing := -1
		if rng.Intn(4) == 0 {
			failing = rng.Intn(len(inputs))
		}
		tupleIts := make([]BlockIterator, len(inputs))
		rowIts := make([]RowIterator, len(inputs))
		for i, in := range inputs {
			ft, fr := &framedTuples{}, &framedRows{}
			if i == failing {
				ft.err, fr.err = boom, boom
			}
			for len(in) > 0 {
				n := min(len(in), 1+rng.Intn(5))
				var data []byte
				for _, tu := range in[:n] {
					data = tu.AppendEncode(data)
				}
				ft.frames = append(ft.frames, in[:n])
				fr.frames = append(fr.frames, relation.Rows{Data: data, N: n, Arity: arity})
				in = in[n:]
			}
			tupleIts[i], rowIts[i] = ft, fr
		}
		maxes := [][]int{{1}, {3}, {128}, {1, 3, 128}}[rng.Intn(4)]
		limit := 0
		if rng.Intn(3) == 0 {
			limit = 1 + rng.Intn(len(all)+1)
		}
		name := fmt.Sprintf("trial %d (arity %d, order %v, %d inputs, max %v, limit %d, failing %d)", trial, arity, order, len(inputs), maxes, limit, failing)

		blocks, rows := MergeBlocks(order, tupleIts), MergeRows(order, rowIts)
		var got []relation.Tuple
		for step := 0; limit == 0 || len(got) < limit; step++ {
			want := maxes[step%len(maxes)]
			if limit > 0 {
				want = min(want, limit-len(got))
			}
			blk, run := blocks.NextBlock(want), rows.NextRows(want)
			if len(blk) != run.N {
				t.Fatalf("%s: step %d: the tuple merge lent %d, the row merge %d", name, step, len(blk), run.N)
			}
			if len(blk) == 0 {
				break
			}
			if len(blk) > want || len(run.Data) != 8*run.N*arity {
				t.Fatalf("%s: step %d: asked for %d, lent %d rows in %d bytes", name, step, want, run.N, len(run.Data))
			}
			for j, tu := range blk {
				if row := run.DecodeRow(j, make(relation.Tuple, arity)); !row.Equal(tu) {
					t.Fatalf("%s: step %d: row %d decodes to %v, the tuple merge lent %v", name, step, j, row, tu)
				}
			}
			got = append(got, blk...)
		}
		if limit == 0 {
			var wantErr error
			if failing >= 0 {
				wantErr = boom
			}
			if errB, errR := IterErr(blocks), IterErr(rows); errB != wantErr || errR != wantErr {
				t.Fatalf("%s: terminals: tuples %v, rows %v, want %v", name, errB, errR, wantErr)
			}
			if failing < 0 && len(got) != len(all) {
				t.Fatalf("%s: merged %d of %d tuples", name, len(got), len(all))
			}
		}
		for i, tu := range got {
			if !tu.Equal(all[i]) {
				t.Fatalf("%s: tuple %d = %v, want %v (the inputs in full EnumOrder)", name, i, tu, all[i])
			}
		}
	}
}

// TestShardedFreeKeyQueryAllocs pins per-tuple Query on a sharded free key
// at a few allocations per merged block, not one per answer: the tuple view
// copies each lent run into one slab the caller owns.
func TestShardedFreeKeyQueryAllocs(t *testing.T) {
	db := gridDB(64, 64)
	const answers = 64 * 64
	for _, shards := range []int{2, 3, 4} {
		r, err := Build(cq.MustParse("F[ff](x, y) :- S(x, y)"), db, WithStrategy(MaterializedStrategy), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			it := r.Query(nil)
			n := 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				n++
			}
			if err := IterErr(it); err != nil || n != answers {
				t.Fatalf("drained %d answers, err %v", n, err)
			}
		})
		if limit := float64(answers/32 + 16); allocs > limit {
			t.Fatalf("%d shards: %.0f allocations per %d-answer Query, want at most %.0f", shards, allocs, answers, limit)
		}
	}
}
