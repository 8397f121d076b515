package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// gridDB holds S(x, y) for every x < xs and y < ys.
func gridDB(xs, ys int) *relation.Database {
	db := relation.NewDatabase()
	s := relation.NewRelation("S", 2)
	for x := 0; x < xs; x++ {
		for y := 0; y < ys; y++ {
			s.MustInsert(relation.Value(x), relation.Value(y))
		}
	}
	db.Add(s)
	return db
}

// TestQueryTuplesOwned: every tuple Next hands out, and every tuple of a
// Drained result, is the caller's. Writing into one changes neither the
// other held tuples nor what a fresh Query answers, and appending to one
// does not reach its neighbour — on every backend whose Query is the tuple
// view over lent blocks, and on a sharded primitive composite, whose
// scatter copies out of a merge of owned tuples.
func TestQueryTuplesOwned(t *testing.T) {
	db := gridDB(8, 300)
	cases := []struct {
		name string
		view string
		vb   relation.Tuple
		opts []Option
	}{
		{"materialized", "F[bf](x, y) :- S(x, y)", relation.Tuple{3}, []Option{WithStrategy(MaterializedStrategy)}},
		{"all-bound", "B[bb](x, y) :- S(x, y)", relation.Tuple{3, 5}, []Option{WithStrategy(AllBoundStrategy)}},
		{"sharded-materialized-routed", "F[bf](x, y) :- S(x, y)", relation.Tuple{3}, []Option{WithStrategy(MaterializedStrategy), WithShards(3)}},
		{"sharded-materialized-scatter", "F[ff](x, y) :- S(x, y)", nil, []Option{WithStrategy(MaterializedStrategy), WithShards(3)}},
		{"sharded-primitive-routed", "F[bf](x, y) :- S(x, y)", relation.Tuple{3}, []Option{WithStrategy(PrimitiveStrategy), WithShards(3)}},
		{"sharded-primitive-scatter", "F[ff](x, y) :- S(x, y)", nil, []Option{WithStrategy(PrimitiveStrategy), WithShards(3)}},
	}
	// mark is the value written into position j of the i-th held tuple.
	mark := func(i, j int) relation.Value { return relation.Value(-1 - 4*i - j) }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := Build(cq.MustParse(c.view), db, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeStream(r, c.vb)
			n := len(Drain(r.Query(c.vb)))
			if n == 0 {
				t.Fatal("fixture request has no answers")
			}
			check := func(how string, held []relation.Tuple) {
				t.Helper()
				if len(held) != n {
					t.Fatalf("%s: %d tuples, want %d", how, len(held), n)
				}
				for i, tu := range held {
					if tu == nil {
						t.Fatalf("%s: tuple %d is nil", how, i)
					}
					for j := range tu {
						if tu[j] != mark(i, j) {
							t.Fatalf("%s: tuple %d holds %v: writes into other tuples reached it", how, i, tu)
						}
					}
				}
				if got := encodeStream(r, c.vb); got != want {
					t.Fatalf("%s: writes into answers changed what a fresh Query serves", how)
				}
			}

			it := r.Query(c.vb)
			var held []relation.Tuple
			for tu, ok := it.Next(); ok; tu, ok = it.Next() {
				for j := range tu {
					tu[j] = mark(len(held), j)
				}
				if len(held) > 0 {
					_ = append(held[len(held)-1], 7) // must reallocate, not reach tu
				}
				held = append(held, tu)
			}
			if err := IterErr(it); err != nil {
				t.Fatal(err)
			}
			check("Next", held)

			drained := Drain(r.Query(c.vb))
			for i, tu := range drained {
				for j := range tu {
					tu[j] = mark(i, j)
				}
			}
			check("Drain", drained)
		})
	}
}

// TestMaterializedQueryAllocs pins per-tuple Query on an unsharded
// materialized bucket at a few allocations per block, not one per answer:
// the churn shape's 2048-answer drain.
func TestMaterializedQueryAllocs(t *testing.T) {
	const answers = 2048
	r, err := Build(cq.MustParse("F[bf](x, y) :- S(x, y)"), gridDB(4, answers), WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		it := r.Query(relation.Tuple{1})
		n := 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			n++
		}
		if err := IterErr(it); err != nil || n != answers {
			t.Fatalf("drained %d answers, err %v", n, err)
		}
	})
	if limit := float64(answers/32 + 16); allocs > limit {
		t.Fatalf("%.0f allocations per %d-answer Query, want at most %.0f", allocs, answers, limit)
	}
}

// TestQueryReadersRaceDeltaFlush: readers drain a materialized Maintained
// and write into every tuple they get while a writer flushes delta batches
// into the very bucket they read. Each drained request must be exactly one
// snapshot's answer — the fixed rows 0..base-1, then the one marker the
// snapshot carries — and, under -race, no reader's writes may touch memory
// another reader or the writer uses.
func TestQueryReadersRaceDeltaFlush(t *testing.T) {
	const base, batches, readers = 300, 40, 3
	db := gridDB(2, base)
	rel, err := db.Relation("S")
	if err != nil {
		t.Fatal(err)
	}
	rel.MustInsert(1, 1000)
	m, err := NewMaintained(cq.MustParse("F[bf](x, y) :- S(x, y)"), db, 0.5, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	vb := relation.Tuple{1}
	done := make(chan struct{})
	errs := make(chan error, readers)
	var reads atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
	defer stop() // also when the writer fails
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				it, err := m.Query(vb)
				if err != nil {
					errs <- err
					return
				}
				n := 0
				for tu, ok := it.Next(); ok; tu, ok = it.Next() {
					if len(tu) != 1 || (n < base && tu[0] != relation.Value(n)) || (n == base && tu[0] < 1000) || n > base {
						errs <- fmt.Errorf("answer %d is %v: not one snapshot's answer", n, tu)
						return
					}
					tu[0] = -1
					n++
				}
				if err := IterErr(it); err != nil || n != base+1 {
					errs <- fmt.Errorf("drained %d answers (err %v), every snapshot has %d", n, err, base+1)
					return
				}
				reads.Add(1)
			}
		}()
	}
	for k := 1; k <= batches; k++ {
		if err := m.Delete("S", relation.Tuple{1, relation.Value(999 + k)}); err != nil {
			t.Fatal(err)
		}
		if err := m.Insert("S", relation.Tuple{1, relation.Value(1000 + k)}); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		// Let a read land on every snapshot, even on one CPU.
		for r := reads.Load(); reads.Load() == r && len(errs) == 0; {
			runtime.Gosched()
		}
	}
	stop()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m.DeltaApplies() == 0 {
		t.Fatal("no flush went through the delta path")
	}
}

// TestQueryDistinctCorruptMmap: on an mmap-loaded snapshot whose payload
// fails its checksum, QueryDistinct reports ErrBadSnapshot through IterErr
// as Query does, and a projection over a composite with one damaged shard
// frame (the outer checksum re-sealed, so the composite itself decodes)
// forwards that shard's error instead of ending cleanly — for the ordered
// (prefix) and the decomposition-ordered (hash) deduplication.
func TestQueryDistinctCorruptMmap(t *testing.T) {
	view := cq.MustParse("P(x) :- S(x, y)")
	db := gridDB(12, 40)
	open := func(t *testing.T, r *Representation, at func(n int) int, reseal bool) *Representation {
		t.Helper()
		snap, err := os.ReadFile(saveSnapshot(t, r))
		if err != nil {
			t.Fatal(err)
		}
		snap[at(len(snap))] ^= 0x01
		if reseal {
			binary.BigEndian.PutUint32(snap[len(snap)-4:], crc32.ChecksumIEEE(snap[snapshotHeaderLen:len(snap)-4]))
		}
		path := filepath.Join(t.TempDir(), "bad.cqs")
		if err := os.WriteFile(path, snap, 0o666); err != nil {
			t.Fatal(err)
		}
		m, err := OpenRepresentationMmap(path)
		if err != nil {
			t.Fatalf("open must defer payload verification, got %v", err)
		}
		return m
	}
	drainErr := func(it Iterator) error {
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
		return IterErr(it)
	}
	for _, s := range []Strategy{MaterializedStrategy, DecompositionStrategy} {
		t.Run(s.String(), func(t *testing.T) {
			r, err := Build(view, db, WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			m := open(t, r, func(n int) int { return snapshotHeaderLen + n/2 }, false)
			if err := drainErr(m.QueryDistinct(nil)); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("QueryDistinct IterErr = %v, want ErrBadSnapshot", err)
			}

			sharded, err := Build(view, db, WithStrategy(s), WithShards(3))
			if err != nil {
				t.Fatal(err)
			}
			m = open(t, sharded, func(n int) int { return 3 * n / 4 }, true)
			if err := m.ensure(); err != nil {
				t.Fatalf("the composite must decode, got %v", err)
			}
			if err := drainErr(m.QueryDistinct(nil)); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("QueryDistinct over a damaged shard: IterErr = %v, want ErrBadSnapshot", err)
			}
		})
	}
}

// BenchmarkQueryDrain prices draining one request through per-tuple Query:
// the churn shape's 2048-answer materialized bucket, and a free scan of a
// 3-shard materialized composite that merges 64×64 answers.
func BenchmarkQueryDrain(b *testing.B) {
	for _, c := range []struct {
		name string
		view string
		db   *relation.Database
		vb   relation.Tuple
		opts []Option
	}{
		{"bucket-2048", "F[bf](x, y) :- S(x, y)", gridDB(4, 2048), relation.Tuple{1}, nil},
		{"sharded-3-free", "F[ff](x, y) :- S(x, y)", gridDB(64, 64), nil, []Option{WithShards(3)}},
	} {
		r, err := Build(cq.MustParse(c.view), c.db, append(c.opts, WithStrategy(MaterializedStrategy))...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				it := r.Query(c.vb)
				for _, ok := it.Next(); ok; _, ok = it.Next() {
				}
				if err := IterErr(it); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
