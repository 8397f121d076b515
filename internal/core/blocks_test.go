package core

import (
	"bytes"
	"context"
	"errors"
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
