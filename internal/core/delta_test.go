package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// encodeStream drains one access request into a comparable byte string.
func encodeStream(r *Representation, vb relation.Tuple) string {
	var buf bytes.Buffer
	it := r.Query(vb)
	for {
		t, ok := it.Next()
		if !ok {
			return buf.String()
		}
		buf.Write(t.AppendEncode(nil))
	}
}

// boundSpace enumerates a small valuation grid to compare reps over.
func boundSpace(nb int, lo, hi relation.Value) []relation.Tuple {
	if nb == 0 {
		return []relation.Tuple{{}}
	}
	var out []relation.Tuple
	var rec func(prefix relation.Tuple)
	rec = func(prefix relation.Tuple) {
		if len(prefix) == nb {
			out = append(out, prefix.Clone())
			return
		}
		for v := lo; v <= hi; v++ {
			rec(append(prefix, v))
		}
	}
	rec(relation.Tuple{})
	return out
}

// requireIdentical asserts got enumerates byte-for-byte like want over vbs.
func requireIdentical(t *testing.T, got, want *Representation, vbs []relation.Tuple) {
	t.Helper()
	for _, vb := range vbs {
		if g, w := encodeStream(got, vb), encodeStream(want, vb); g != w {
			t.Fatalf("stream diverges at vb=%v:\n got %d bytes\nwant %d bytes", vb, len(g), len(w))
		}
		if g, w := got.Exists(vb), want.Exists(vb); g != w {
			t.Fatalf("Exists(%v) = %v, want %v", vb, g, w)
		}
	}
}

// churnMaintained runs a deterministic churn script against a Maintained
// and mirrors it into a plain database, returning the mirror.
func churnMaintained(t *testing.T, m *Maintained, seed int64, steps int) *relation.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mirror := m.db.Clone()
	r, _ := mirror.Relation("R")
	for i := 0; i < steps; i++ {
		a := relation.Value(rng.Intn(8))
		b := relation.Value(rng.Intn(8))
		if rng.Intn(3) == 0 {
			if err := m.Delete("R", relation.Tuple{a, b}); err != nil {
				t.Fatal(err)
			}
			r.Delete(relation.Tuple{a, b})
		} else {
			if err := m.Insert("R", relation.Tuple{a, b}); err != nil {
				t.Fatal(err)
			}
			if err := r.Insert(relation.Tuple{a, b}); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(5) == 0 {
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	return mirror
}

func pathDB(seed int64, n int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
	}
	db.Add(r)
	return db
}

// TestDeltaApplyStrategies churns each delta-capable strategy and demands
// byte-identity with a fresh compile after every flush, plus evidence the
// delta path (not a recompile) did the work.
func TestDeltaApplyStrategies(t *testing.T) {
	cases := []struct {
		name    string
		view    string
		opts    []Option
		wantUse bool // delta applies must be > 0
	}{
		{"materialized", "V[bf](x, y) :- R(x, p), R(p, y)", []Option{WithStrategy(MaterializedStrategy)}, true},
		{"allbound", "V[bb](x, y) :- R(x, y)", []Option{WithStrategy(AllBoundStrategy)}, true},
		{"primitive", "V[bf](x, y) :- R(x, p), R(p, y)", []Option{WithStrategy(PrimitiveStrategy), WithTau(2)}, true},
		{"direct-fallback", "V[bf](x, y) :- R(x, p), R(p, y)", []Option{WithStrategy(DirectStrategy)}, false},
		{"decomp-fallback", "V[bf](x, y) :- R(x, p), R(p, y)", []Option{WithStrategy(DecompositionStrategy)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view := cq.MustParse(tc.view)
			m, err := NewMaintained(view, pathDB(7, 40), 0.5, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			mirror := churnMaintained(t, m, 11, 120)
			fresh, err := Build(view, mirror, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, m.Rep(), fresh, boundSpace(len(fresh.BoundNames()), 0, 8))
			if tc.wantUse && m.DeltaApplies() == 0 {
				t.Fatalf("strategy %s never took the delta path (rebuilds=%d)", tc.name, m.Rebuilds())
			}
			if !tc.wantUse && m.DeltaApplies() != 0 {
				t.Fatalf("strategy %s unexpectedly delta-applied", tc.name)
			}
		})
	}
}

// TestDeltaApplySharded checks the per-dirty-shard capability probe: a
// sharded materialized composite must delta-apply shard-locally and stay
// byte-identical to the fresh sharded and unsharded compiles. The churned
// relation R carries the shard variable in its only atom, so churn stays
// shard-local (S is replicated but never changes; a self-join like
// R(x,p),R(p,y) would alias R into a replicated copy and correctly force
// full rebuilds instead).
func TestDeltaApplySharded(t *testing.T) {
	view := cq.MustParse("V[bf](x, y) :- R(x, p), S(p, y)")
	opts := []Option{WithStrategy(MaterializedStrategy), WithShards(4)}
	db := pathDB(7, 40)
	s := relation.NewRelation("S", 2)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		s.MustInsert(relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
	}
	db.Add(s)
	m, err := NewMaintained(view, db, 0.5, opts...)
	if err != nil {
		t.Fatal(err)
	}
	mirror := churnMaintained(t, m, 13, 120)
	fresh, err := Build(view, mirror, opts...)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(view, mirror.Clone(), WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	vbs := boundSpace(1, 0, 8)
	requireIdentical(t, m.Rep(), fresh, vbs)
	requireIdentical(t, m.Rep(), flat, vbs)
	if m.DeltaApplies() == 0 {
		t.Fatal("sharded composite never delta-applied a dirty shard")
	}
	if got := m.Rep().Stats().Shards; got != 4 {
		t.Fatalf("maintained rep has %d shards, want 4", got)
	}
}

// TestDeltaApplyDisabled pins the WithDeltaApply(false) escape hatch on a
// materialized self-join and in two regimes that bracket the delta
// capability: a materialized view whose churned R joins a static fan-out
// T (a recompile re-materializes the amplified output; the delta path
// touches only the changed derivations) and an all-bound index. Disabled,
// the churned view matches a fresh Build with zero delta applies; by
// default, the same script reaches the same state through the delta path.
func TestDeltaApplyDisabled(t *testing.T) {
	plainDB := func() *relation.Database { return pathDB(7, 40) }
	fanOutDB := func() *relation.Database {
		db := plainDB()
		tr := relation.NewRelation("T", 2)
		for p := 0; p < 8; p++ {
			for y := 0; y < 16; y++ {
				tr.MustInsert(relation.Value(p), relation.Value(y))
			}
		}
		db.Add(tr)
		return db
	}
	for _, tc := range []struct {
		name string
		view string
		opts []Option
		db   func() *relation.Database
	}{
		{"materialized-selfjoin", "V[bf](x, y) :- R(x, p), R(p, y)", []Option{WithStrategy(MaterializedStrategy)}, plainDB},
		{"materialized-fanout", "V[bf](x, y) :- R(x, p), T(p, y)", []Option{WithStrategy(MaterializedStrategy)}, fanOutDB},
		{"allbound", "V[bb](x, y) :- R(x, y)", []Option{WithStrategy(AllBoundStrategy)}, plainDB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := cq.MustParse(tc.view)
			off, err := NewMaintained(view, tc.db(), 0.5, append(append([]Option{}, tc.opts...), WithDeltaApply(false))...)
			if err != nil {
				t.Fatal(err)
			}
			on, err := NewMaintained(view, tc.db(), 0.5, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			mirror := churnMaintained(t, off, 17, 60)
			churnMaintained(t, on, 17, 60)
			fresh, err := Build(view, mirror, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			vbs := boundSpace(len(fresh.BoundNames()), 0, 8)
			requireIdentical(t, off.Rep(), fresh, vbs)
			requireIdentical(t, on.Rep(), fresh, vbs)
			if off.DeltaApplies() != 0 {
				t.Fatalf("delta path used despite WithDeltaApply(false): %d", off.DeltaApplies())
			}
			if off.Rebuilds() == 0 {
				t.Fatal("no rebuilds happened at all")
			}
			if on.DeltaApplies() == 0 {
				t.Fatalf("default mode never took the delta path (rebuilds=%d)", on.Rebuilds())
			}
		})
	}
}

// TestRebuildBatchSnapshotIndependent is the aliasing regression test:
// rebuildBatch's snapshot of the pending batch must be unaffected by
// anything that later mutates the live pending backing array. The hook
// overwrites the buffered changes in place right after the snapshot is
// taken; with an aliased (uncopied) batch the rebuild would apply the
// overwritten garbage instead of the buffered updates.
func TestRebuildBatchSnapshotIndependent(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	db.Add(r)
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	m, err := NewMaintained(view, db, 10, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	m.testHookBatchTaken = func() {
		m.mu.Lock()
		for i := range m.pending {
			m.pending[i] = change{seq: m.pending[i].seq, rel: "R", tuple: relation.Tuple{99, 99}, delete: false}
		}
		m.mu.Unlock()
	}
	if err := m.Insert("R", relation.Tuple{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	it, _ := m.Query(relation.Tuple{5})
	if got := Drain(it); len(got) != 1 || got[0][0] != 6 {
		t.Fatalf("batch snapshot was corrupted by concurrent mutation: query(5) = %v", got)
	}
	it, _ = m.Query(relation.Tuple{99})
	if got := Drain(it); len(got) != 0 {
		t.Fatalf("overwritten garbage leaked into the rebuild: query(99) = %v", got)
	}
}

// TestBulkLoadEmptyMaintained pins the staleness floor: bulk-loading an
// empty database must not recompile once per tuple (budget fraction·|D|
// is 0 at the start).
func TestBulkLoadEmptyMaintained(t *testing.T) {
	db := relation.NewDatabase()
	db.Add(relation.NewRelation("R", 2))
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	m, err := NewMaintained(view, db, 0.1, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * minChurnBatch
	for i := 0; i < n; i++ {
		if err := m.Insert("R", relation.Tuple{relation.Value(i), relation.Value(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Quiesce()
	if got := m.Rebuilds(); got > n/minChurnBatch+1 {
		t.Fatalf("bulk load of %d tuples recompiled %d times; floor of %d should cap it near %d",
			n, got, minChurnBatch, n/minChurnBatch)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	it, _ := m.Query(relation.Tuple{0})
	if got := Drain(it); len(got) != 1 {
		t.Fatalf("after bulk load: query(0) = %v", got)
	}
}

// TestNoopDeleteCounted pins satellite 3: deletes of absent tuples are
// counted, exposed, and harmless.
func TestNoopDeleteCounted(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	db.Add(r)
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	m, err := NewMaintained(view, db, 10, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("R", relation.Tuple{7, 7}); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("R", relation.Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("R", relation.Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// {7,7} was never present; the second {1,2} delete was buffered after
	// the one that removes it — both are set-semantics no-ops.
	if got := m.NoopDeletes(); got != 2 {
		t.Fatalf("NoopDeletes = %d, want 2", got)
	}
	it, _ := m.Query(relation.Tuple{1})
	if got := Drain(it); len(got) != 0 {
		t.Fatalf("delete did not apply: %v", got)
	}
}

// recordingLog captures UpdateLog traffic for sequencing assertions.
type recordingLog struct {
	appends []uint64
	compact uint64
}

func (l *recordingLog) Append(seq uint64, rel string, t relation.Tuple, del bool) error {
	l.appends = append(l.appends, seq)
	return nil
}

func (l *recordingLog) Compact(applied uint64) error {
	l.compact = applied
	return nil
}

// failingLog fails every append.
type failingLog struct{}

func (failingLog) Append(uint64, string, relation.Tuple, bool) error {
	return fmt.Errorf("log unavailable")
}
func (failingLog) Compact(uint64) error { return nil }

// TestUpdateLogSequencing checks the log-before-buffer protocol: appends
// carry gapless increasing sequence numbers, compaction trails the last
// compiled change, and a failed append fails (and un-buffers) the update.
func TestUpdateLogSequencing(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	db.Add(r)
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	m, err := NewMaintained(view, db, 10, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	log := &recordingLog{}
	m.SetUpdateLog(log, 0)
	for i := 0; i < 5; i++ {
		if err := m.Insert("R", relation.Tuple{relation.Value(10 + i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(log.appends) != 5 {
		t.Fatalf("logged %d appends, want 5", len(log.appends))
	}
	for i, seq := range log.appends {
		if seq != uint64(i+1) {
			t.Fatalf("append %d has seq %d, want %d", i, seq, i+1)
		}
	}
	if log.compact != 5 {
		t.Fatalf("compacted to %d, want 5", log.compact)
	}

	m.SetUpdateLog(failingLog{}, m.LastSeq())
	if err := m.Insert("R", relation.Tuple{50, 1}); err == nil {
		t.Fatal("insert with failing log acknowledged")
	}
	if m.Pending() != 0 {
		t.Fatalf("failed append left %d changes buffered", m.Pending())
	}
	// The sequence must not have burned a number on the failure.
	m.SetUpdateLog(log, m.LastSeq())
	if err := m.Insert("R", relation.Tuple{51, 1}); err != nil {
		t.Fatal(err)
	}
	if got := log.appends[len(log.appends)-1]; got != 6 {
		t.Fatalf("post-failure append has seq %d, want 6", got)
	}
}
