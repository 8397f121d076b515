package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// shard_test.go verifies the sharded composite backend: partitioned
// enumeration must be byte-for-byte identical to the unsharded
// representation (routing and merge paths), snapshots must round-trip per
// shard, and Maintained must recompile only dirty shards.

// shardCases are the E1 triangle and E6 path shapes the acceptance
// criteria name, plus a merge-enumeration view with no bound variables.
func shardCases(t *testing.T) []struct {
	name  string
	view  *cq.View
	db    *relation.Database
	opts  []Option
	nVbs  int
	boolQ bool
} {
	t.Helper()
	triDB := workload.TriangleDB(7, 40, 420)
	pathDB := workload.PathDB(7, 4, 260, 18)
	return []struct {
		name  string
		view  *cq.View
		db    *relation.Database
		opts  []Option
		nVbs  int
		boolQ bool
	}{
		{
			name: "E1 triangle primitive",
			view: cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
			db:   triDB,
			opts: []Option{WithStrategy(PrimitiveStrategy), WithTau(4)},
			nVbs: 40,
		},
		{
			name: "E1 triangle decomposition",
			view: cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
			db:   triDB,
			opts: []Option{WithStrategy(DecompositionStrategy)},
			nVbs: 40,
		},
		{
			name: "E1 triangle materialized",
			view: cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
			db:   triDB,
			opts: []Option{WithStrategy(MaterializedStrategy)},
			nVbs: 40,
		},
		{
			name: "E6 path primitive",
			view: workload.PathView(4),
			db:   pathDB,
			opts: []Option{WithStrategy(PrimitiveStrategy), WithTau(6)},
			nVbs: 40,
		},
		{
			name: "E6 path decomposition",
			view: workload.PathView(4),
			db:   pathDB,
			opts: []Option{WithStrategy(DecompositionStrategy)},
			nVbs: 40,
		},
		{
			name: "merge enumeration decomposition (no bound variables)",
			view: cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"),
			db:   workload.PathDB(11, 2, 300, 20),
			opts: []Option{WithStrategy(DecompositionStrategy)},
			nVbs: 1,
		},
		{
			name: "merge enumeration primitive (no bound variables)",
			view: cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"),
			db:   workload.PathDB(11, 2, 300, 20),
			opts: []Option{WithStrategy(PrimitiveStrategy), WithTau(4)},
			nVbs: 1,
		},
		{
			name: "merge enumeration materialized (no bound variables)",
			view: cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"),
			db:   workload.PathDB(11, 2, 300, 20),
			opts: []Option{WithStrategy(MaterializedStrategy)},
			nVbs: 1,
		},
		{
			name:  "all-bound boolean routing",
			view:  cq.MustParse("V[bbb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
			db:    triDB,
			opts:  nil, // Auto resolves to AllBoundStrategy
			nVbs:  60,
			boolQ: true,
		},
	}
}

// sampleBindings draws deterministic valuations, mixing hits and misses.
func sampleBindings(r *Representation, n int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	inst := r.Instance()
	out := make([]relation.Tuple, 0, n)
	for i := 0; i < n; i++ {
		vb := make(relation.Tuple, len(inst.NV.Bound))
		for j := range vb {
			dom := inst.BoundDomain(j)
			if len(dom) == 0 || i%3 == 0 {
				vb[j] = relation.Value(rng.Intn(1000))
				continue
			}
			vb[j] = dom[rng.Intn(len(dom))]
		}
		out = append(out, vb)
	}
	return out
}

// enumBytes drains one request into its encoded byte stream.
func enumBytes(r *Representation, vb relation.Tuple) []byte {
	var buf bytes.Buffer
	for _, tu := range Drain(r.Query(vb)) {
		buf.Write(tu.AppendEncode(nil))
		buf.WriteByte('|')
	}
	return buf.Bytes()
}

// TestShardedEnumerationIdentical is the core acceptance property: for
// every shard count, the sharded representation enumerates byte-for-byte
// identically to the unsharded one, and Exists agrees.
func TestShardedEnumerationIdentical(t *testing.T) {
	for _, tc := range shardCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Build(tc.view, tc.db, tc.opts...)
			if err != nil {
				t.Fatalf("unsharded build: %v", err)
			}
			vbs := sampleBindings(base, tc.nVbs, 99)
			for _, shards := range []int{2, 3, 5, 8} {
				sharded, err := Build(tc.view, tc.db, append(append([]Option{}, tc.opts...), WithShards(shards))...)
				if err != nil {
					t.Fatalf("%d shards: build: %v", shards, err)
				}
				if got := sharded.Stats().Shards; got != shards {
					t.Fatalf("Stats().Shards = %d, want %d", got, shards)
				}
				for _, vb := range vbs {
					want, got := enumBytes(base, vb), enumBytes(sharded, vb)
					if !bytes.Equal(want, got) {
						t.Fatalf("%d shards: enumeration for %v differs:\nwant %q\ngot  %q", shards, vb, want, got)
					}
					if base.Exists(vb) != sharded.Exists(vb) {
						t.Fatalf("%d shards: Exists(%v) disagrees", shards, vb)
					}
				}
			}
		})
	}
}

// TestShardedBuildDeterministic verifies the compiled composite is
// independent of the worker count — parallel shard builds must not leak
// scheduling into the structure or its enumerations. (Snapshot bytes are
// not compared: frames embed the measured wall-clock build time.)
func TestShardedBuildDeterministic(t *testing.T) {
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	db := workload.TriangleDB(3, 30, 300)
	var base *Representation
	var vbs []relation.Tuple
	for _, workers := range []int{1, 2, 8} {
		rep, err := Build(view, db, WithStrategy(PrimitiveStrategy), WithTau(3), WithShards(4), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = rep
			vbs = sampleBindings(rep, 30, 77)
			continue
		}
		if got, want := rep.Stats().Entries, base.Stats().Entries; got != want {
			t.Fatalf("workers=%d: entries %d != %d", workers, got, want)
		}
		if got, want := rep.Stats().Bytes, base.Stats().Bytes; got != want {
			t.Fatalf("workers=%d: bytes %d != %d", workers, got, want)
		}
		for _, vb := range vbs {
			if !bytes.Equal(enumBytes(base, vb), enumBytes(rep, vb)) {
				t.Fatalf("workers=%d: enumeration for %v differs from workers=1", workers, vb)
			}
		}
	}
}

// TestShardedSnapshotRoundTrip saves a sharded representation and insists
// the loaded composite routes, merges, and enumerates identically.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	for _, tc := range shardCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Build(tc.view, tc.db, append(append([]Option{}, tc.opts...), WithShards(3))...)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			var buf bytes.Buffer
			if _, err := rep.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			loaded, err := ReadRepresentation(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadRepresentation: %v", err)
			}
			if loaded.Stats().Shards != 3 {
				t.Fatalf("loaded Stats().Shards = %d, want 3", loaded.Stats().Shards)
			}
			if loaded.Stats().Strategy != rep.Stats().Strategy {
				t.Fatalf("loaded strategy %v, want %v", loaded.Stats().Strategy, rep.Stats().Strategy)
			}
			for _, vb := range sampleBindings(rep, 25, 5) {
				if !bytes.Equal(enumBytes(rep, vb), enumBytes(loaded, vb)) {
					t.Fatalf("loaded sharded snapshot enumerates differently for %v", vb)
				}
			}
		})
	}
}

// TestMaintainedDirtyShardRebuild is the maintenance regression: churn
// confined to one shard must recompile only that shard — every clean
// shard's compiled sub-representation is reused pointer-identical.
func TestMaintainedDirtyShardRebuild(t *testing.T) {
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	db := workload.TriangleDB(5, 30, 320)
	const shards = 4
	m, err := NewMaintained(view, db, 0, WithStrategy(DecompositionStrategy), WithShards(shards))
	if err != nil {
		t.Fatalf("NewMaintained: %v", err)
	}
	// In the triangle, R also feeds the aliased replicated atom R(y, z), so
	// any R churn dirties every shard — the fallback full rebuild must stay
	// correct.
	t.Run("triangle churn dirties all shards (replicated alias)", func(t *testing.T) {
		if err := m.Insert("R", relation.Tuple{1001, 1002}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := m.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		fresh, err := Build(view, m.rep.Load().Database(), WithStrategy(DecompositionStrategy))
		if err != nil {
			t.Fatalf("fresh build: %v", err)
		}
		for _, vb := range sampleBindings(fresh, 10, 21) {
			it, err := m.Query(vb)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			var got bytes.Buffer
			for _, tu := range Drain(it) {
				got.Write(tu.AppendEncode(nil))
				got.WriteByte('|')
			}
			if !bytes.Equal(got.Bytes(), enumBytes(fresh, vb)) {
				t.Fatalf("post-rebuild answers diverge for %v", vb)
			}
		}
	})

	// The star view has the shard variable x in every atom, so churn lands
	// in exactly one shard per change.
	star := cq.MustParse("S[bff](x, y, z) :- A(x, y), B(x, z)")
	sdb := relation.NewDatabase()
	a := relation.NewRelation("A", 2)
	b := relation.NewRelation("B", 2)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		a.MustInsert(relation.Value(rng.Intn(60)), relation.Value(rng.Intn(500)))
		b.MustInsert(relation.Value(rng.Intn(60)), relation.Value(rng.Intn(500)))
	}
	sdb.Add(a)
	sdb.Add(b)
	sm, err := NewMaintained(star, sdb, 0, WithStrategy(DecompositionStrategy), WithShards(shards))
	if err != nil {
		t.Fatalf("NewMaintained(star): %v", err)
	}
	old := sm.Rep().be.(*shardedBackend)

	key := relation.Value(12345)
	dirtyShard := relation.ShardOf(key, shards)
	if err := sm.Insert("A", relation.Tuple{key, 1}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := sm.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	cur := sm.Rep().be.(*shardedBackend)
	for i := 0; i < shards; i++ {
		if i == dirtyShard {
			if cur.subs[i] == old.subs[i] {
				t.Fatalf("dirty shard %d was not recompiled", i)
			}
			continue
		}
		if cur.subs[i] != old.subs[i] {
			t.Fatalf("clean shard %d was recompiled (want pointer-identical reuse)", i)
		}
	}

	// And the maintained answers match a fresh unsharded compile.
	fresh, err := Build(star, sm.rep.Load().Database(), WithStrategy(DecompositionStrategy))
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	it, err := sm.Query(relation.Tuple{key})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var got bytes.Buffer
	for _, tu := range Drain(it) {
		got.Write(tu.AppendEncode(nil))
	}
	if !bytes.Equal(got.Bytes(), enumBytes(fresh, relation.Tuple{key})) {
		t.Fatal("maintained sharded answers diverge from fresh unsharded compile")
	}

	// A second churn burst on a different key touches only its own shard.
	key2 := relation.Value(777)
	if relation.ShardOf(key2, shards) == dirtyShard {
		key2 = relation.Value(778)
	}
	old = cur
	if err := sm.Insert("B", relation.Tuple{key2, 2}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := sm.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	cur = sm.Rep().be.(*shardedBackend)
	recompiled := 0
	for i := 0; i < shards; i++ {
		if cur.subs[i] != old.subs[i] {
			recompiled++
		}
	}
	if recompiled != 1 {
		t.Fatalf("second burst recompiled %d shards, want exactly 1", recompiled)
	}
}

// TestSnapshotShardCountBounded pins the corrupt-count defense: a
// CRC-valid frame claiming an absurd shard count must fail with
// ErrBadSnapshot instead of sizing an allocation from attacker-controlled
// bytes.
func TestSnapshotShardCountBounded(t *testing.T) {
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	db.Add(r)

	var payload bytes.Buffer
	e := relation.NewEncoder(&payload)
	encodeView(e, view)
	e.Database(db)
	e.Uint(uint64(DirectStrategy))
	e.Int(0)        // build time
	e.Uint(1 << 40) // absurd shard count
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	var frame bytes.Buffer
	frame.WriteString(snapshotMagic)
	var hdr [10]byte
	binary.BigEndian.PutUint16(hdr[:2], snapshotVersion)
	binary.BigEndian.PutUint64(hdr[2:], uint64(payload.Len()))
	frame.Write(hdr[:])
	frame.Write(payload.Bytes())
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload.Bytes()))
	frame.Write(sum[:])

	_, err := ReadRepresentation(bytes.NewReader(frame.Bytes()))
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want errors.Is(_, ErrBadSnapshot)", err)
	}
}

// TestShardOfStable pins the hash so snapshots written by one process
// route identically in another.
func TestShardOfStable(t *testing.T) {
	if relation.ShardOf(0, 1) != 0 || relation.ShardOf(12345, 1) != 0 {
		t.Fatal("single shard must own everything")
	}
	for _, n := range []int{2, 3, 8} {
		counts := make([]int, n)
		for v := relation.Value(0); v < 4000; v++ {
			s := relation.ShardOf(v, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", v, n, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c < 4000/n/2 {
				t.Fatalf("shard %d of %d owns only %d of 4000 values — hash badly skewed", s, n, c)
			}
		}
	}
}
