package difftest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// strategyCases is the menu the differential harness drives: every
// persistable strategy plus sharded composites of each structural one.
var strategyCases = []struct {
	name string
	opts []core.Option
}{
	{"direct", []core.Option{core.WithStrategy(core.DirectStrategy)}},
	{"materialized", []core.Option{core.WithStrategy(core.MaterializedStrategy)}},
	{"primitive", []core.Option{core.WithStrategy(core.PrimitiveStrategy)}},
	{"primitive-tau2", []core.Option{core.WithStrategy(core.PrimitiveStrategy), core.WithTau(2)}},
	{"decomposition", []core.Option{core.WithStrategy(core.DecompositionStrategy)}},
	{"primitive-sharded", []core.Option{core.WithStrategy(core.PrimitiveStrategy), core.WithShards(2)}},
	{"decomposition-sharded", []core.Option{core.WithStrategy(core.DecompositionStrategy), core.WithShards(3)}},
	{"materialized-sharded", []core.Option{core.WithStrategy(core.MaterializedStrategy), core.WithShards(2)}},
}

// encodeSeq flattens a tuple sequence into comparable bytes.
func encodeSeq(ts []relation.Tuple) []byte {
	var buf bytes.Buffer
	for _, t := range ts {
		buf.Write(t.AppendEncode(nil))
	}
	return buf.Bytes()
}

// encodeBlocks drains one access request block by block, encoding each
// borrowed block before asking for the next (the only legal way to keep
// one), and checks every block respects max.
func encodeBlocks(rep *core.Representation, vb relation.Tuple, max int) ([]byte, error) {
	var buf []byte
	blocks := rep.QueryBlocks(context.Background(), vb)
	for {
		blk := blocks.NextBlock(max)
		if len(blk) == 0 {
			return buf, core.IterErr(blocks)
		}
		if len(blk) > max {
			return nil, fmt.Errorf("block of %d tuples exceeds max %d", len(blk), max)
		}
		for _, t := range blk {
			buf = t.AppendEncode(buf)
		}
	}
}

// TestDifferentialAllStrategies is the acceptance harness: 120 seeded
// random acyclic CQ/database instances, every strategy checked
// byte-for-byte against the naive backtracking join on every bound
// valuation that has answers, plus a guaranteed miss — through the
// per-tuple enumeration and through the block enumeration at block sizes
// 1, 3 and 128. On a sharded composite whose shard key is free both go
// through core.MergeBlocks, over owned tuples and over lent blocks.
func TestDifferentialAllStrategies(t *testing.T) {
	const instances = 120
	checkedBindings, freeKeyMerges := 0, 0
	for seed := 0; seed < instances; seed++ {
		checked, merges := checkStrategies(t, seed, Generate(rand.New(rand.NewSource(int64(seed)))))
		checkedBindings += checked
		freeKeyMerges += merges
	}
	if checkedBindings < instances*len(strategyCases) || freeKeyMerges == 0 {
		t.Fatalf("only %d bindings checked, %d through a free-key merge; generator degenerated", checkedBindings, freeKeyMerges)
	}
	t.Logf("differential: %d instances, %d strategy menu entries, %d binding checks (%d free-key merges)", instances, len(strategyCases), checkedBindings, freeKeyMerges)
}

// TestDifferentialCyclic runs the same checks on 40 seeded cyclic
// instances (GenerateCyclic): triangles, 4-cycles and join trees closed
// by one more atom, with self-join aliases.
func TestDifferentialCyclic(t *testing.T) {
	const instances = 40
	checkedBindings := 0
	for seed := 0; seed < instances; seed++ {
		checked, _ := checkStrategies(t, seed, GenerateCyclic(rand.New(rand.NewSource(int64(seed)))))
		checkedBindings += checked
	}
	if checkedBindings < instances*len(strategyCases) {
		t.Fatalf("only %d bindings checked; generator degenerated", checkedBindings)
	}
	t.Logf("cyclic differential: %d instances, %d binding checks", instances, checkedBindings)
}

// checkStrategies builds case c under every strategy of strategyCases and
// checks each stream against the naive join, and the sharded primitive
// composite against its unsharded sibling. It returns the number of
// bindings checked and how many of them went through a free-key merge.
func checkStrategies(t *testing.T, seed int, c *Case) (checkedBindings, freeKeyMerges int) {
	t.Helper()
	answers := c.NaiveAnswers()
	vbs := Valuations(answers, len(c.Bound))

	for _, sc := range strategyCases {
		rep, err := core.Build(c.View, c.DB, sc.opts...)
		if err != nil {
			t.Fatalf("seed %d: %s: build: %v\nview: %v", seed, sc.name, err, c.View)
		}
		if fmt.Sprint(rep.BoundNames()) != fmt.Sprint(c.Bound) || fmt.Sprint(rep.FreeNames()) != fmt.Sprint(c.Free) {
			t.Fatalf("seed %d: %s: name order mismatch: rep bound %v free %v, case bound %v free %v",
				seed, sc.name, rep.BoundNames(), rep.FreeNames(), c.Bound, c.Free)
		}
		order := rep.EnumOrder()
		for _, vb := range vbs {
			want := Expected(answers, vb, order)
			got := core.Drain(rep.Query(vb))
			if !bytes.Equal(encodeSeq(got), encodeSeq(want)) {
				t.Fatalf("seed %d: %s: binding %v: stream diverges from naive join\n got (%d): %v\nwant (%d): %v\nview: %v\norder: %v",
					seed, sc.name, vb, len(got), got, len(want), want, c.View, order)
			}
			for _, max := range []int{1, 3, 128} {
				blk, err := encodeBlocks(rep, vb, max)
				if err != nil || !bytes.Equal(blk, encodeSeq(got)) {
					t.Fatalf("seed %d: %s: binding %v: block enumeration (max %d) diverges from per-tuple: %d vs %d bytes, err %v",
						seed, sc.name, vb, max, len(blk), len(encodeSeq(got)), err)
				}
			}
			if rep.ShardCount() > 1 && rep.ShardKeyIndex() < 0 {
				freeKeyMerges++
			}
			if rep.Exists(vb) != (len(want) > 0) {
				t.Fatalf("seed %d: %s: binding %v: Exists = %v, naive answer count %d",
					seed, sc.name, vb, rep.Exists(vb), len(want))
			}
			checkedBindings++
		}
	}

	// The sharded composite must match its unsharded sibling exactly —
	// stream for stream — not just the naive baseline.
	unsharded, err := core.Build(c.View, c.DB, core.WithStrategy(core.PrimitiveStrategy))
	if err != nil {
		t.Fatalf("seed %d: unsharded: %v", seed, err)
	}
	sharded, err := core.Build(c.View, c.DB, core.WithStrategy(core.PrimitiveStrategy), core.WithShards(3))
	if err != nil {
		t.Fatalf("seed %d: sharded: %v", seed, err)
	}
	for _, vb := range vbs {
		a := core.Drain(unsharded.Query(vb))
		b := core.Drain(sharded.Query(vb))
		if !bytes.Equal(encodeSeq(a), encodeSeq(b)) {
			t.Fatalf("seed %d: binding %v: sharded stream differs from unsharded", seed, vb)
		}
	}
	return checkedBindings, freeKeyMerges
}

// TestGeneratorDeterminism pins the harness's reproducibility: the same
// seed must regenerate the identical case, or failure seeds reported by
// CI could not be replayed locally.
func TestGeneratorDeterminism(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := Generate(rand.New(rand.NewSource(seed)))
		b := Generate(rand.New(rand.NewSource(seed)))
		if fmt.Sprint(a.View) != fmt.Sprint(b.View) {
			t.Fatalf("seed %d: views differ:\n%v\n%v", seed, a.View, b.View)
		}
		var ab, bb bytes.Buffer
		ea, eb := relation.NewEncoder(&ab), relation.NewEncoder(&bb)
		ea.Database(a.DB)
		eb.Database(b.DB)
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("seed %d: databases differ", seed)
		}
	}
}

// TestNaiveJoinKnownAnswer anchors the trusted baseline itself on a
// hand-computed instance, so the harness cannot drift into comparing two
// wrong implementations against each other.
func TestNaiveJoinKnownAnswer(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	r.MustInsert(1, 3)
	r.MustInsert(2, 3)
	db.Add(r)
	s := relation.NewRelation("S", 2)
	s.MustInsert(2, 7)
	s.MustInsert(3, 7)
	s.MustInsert(3, 8)
	db.Add(s)

	view := cq.MustParse("Q[bff](x, y, z) :- R(x, y), S(y, z)")
	c := &Case{View: view, DB: db, Bound: []string{"x"}, Free: []string{"y", "z"}}
	answers := c.NaiveAnswers()
	// x=1: y∈{2,3}; (2,7), (3,7), (3,8). x=2: y=3 → (3,7), (3,8).
	got := Expected(answers, relation.Tuple{1}, nil)
	want := []relation.Tuple{{2, 7}, {3, 7}, {3, 8}}
	if !bytes.Equal(encodeSeq(got), encodeSeq(want)) {
		t.Fatalf("x=1: got %v, want %v", got, want)
	}
	got = Expected(answers, relation.Tuple{2}, nil)
	want = []relation.Tuple{{3, 7}, {3, 8}}
	if !bytes.Equal(encodeSeq(got), encodeSeq(want)) {
		t.Fatalf("x=2: got %v, want %v", got, want)
	}
	if got := Expected(answers, relation.Tuple{9}, nil); len(got) != 0 {
		t.Fatalf("x=9: got %v, want empty", got)
	}
}
