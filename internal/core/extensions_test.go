package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/decomp"
	"cqrep/internal/join"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// TestQueryDistinctProjection checks the Section-3.2 projection extension:
// the co-author view V^bf(x,y) projects the witnessing paper away and must
// yield each co-author once, across strategies.
func TestQueryDistinctProjection(t *testing.T) {
	db := workload.CoauthorDB(5, 40, 60, 400)
	view := cq.MustParse("V[bf](x, y) :- R(x, p), R(y, p)")
	for _, opts := range [][]Option{
		{WithStrategy(PrimitiveStrategy), WithTau(4)},
		{WithStrategy(DecompositionStrategy)},
		{WithStrategy(DirectStrategy)},
		{WithStrategy(MaterializedStrategy)},
	} {
		rep, err := Build(view, db, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: distinct co-authors via the full view + manual dedup.
		for _, author := range []relation.Value{0, 1, 2, 7} {
			vb := relation.Tuple{author}
			want := make(map[relation.Value]bool)
			for _, full := range Drain(rep.Query(vb)) {
				want[full[0]] = true // full = (y, p)
			}
			got := Drain(rep.QueryDistinct(vb))
			if len(got) != len(want) {
				t.Fatalf("strategy %v author %v: %d distinct, want %d", rep.Stats().Strategy, author, len(got), len(want))
			}
			seen := make(map[relation.Value]bool)
			for _, g := range got {
				if len(g) != 1 {
					t.Fatalf("projected tuple %v has arity %d, want 1", g, len(g))
				}
				if seen[g[0]] {
					t.Fatalf("strategy %v: duplicate projected tuple %v", rep.Stats().Strategy, g)
				}
				seen[g[0]] = true
				if !want[g[0]] {
					t.Fatalf("strategy %v: unexpected co-author %v", rep.Stats().Strategy, g[0])
				}
			}
			if n, err := rep.CountDistinct(vb); err != nil || n != len(want) {
				t.Fatalf("CountDistinct = %d, %v, want %d", n, err, len(want))
			}
		}
	}
}

func TestQueryDistinctOnFullViewIsIdentity(t *testing.T) {
	db := workload.TriangleDB(3, 30, 70)
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	rep, err := Build(view, db, WithTau(2))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("R")
	row := r.Row(0)
	vb := relation.Tuple{row[0], row[1]}
	a := Drain(rep.Query(vb))
	b := Drain(rep.QueryDistinct(vb))
	if len(a) != len(b) {
		t.Fatalf("full view distinct %d != plain %d", len(b), len(a))
	}
}

func TestCount(t *testing.T) {
	db := workload.TriangleDB(9, 25, 60)
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	rep, err := Build(view, db, WithTau(2))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("R")
	for i := 0; i < 10 && i < r.Len(); i++ {
		row := r.Row(i)
		vb := relation.Tuple{row[0], row[1]}
		if got, err := rep.Count(vb); err != nil || got != len(Drain(rep.Query(vb))) {
			t.Errorf("Count(%v) = %d, %v, want %d", vb, got, err, len(Drain(rep.Query(vb))))
		}
	}
}

// TestCountOnDamagedSnapshot: a bit-flipped snapshot fails typed on
// every load path and no count panics — the eager load refuses it, and on
// an mmap load, whose payload is checked on first touch, Count and
// CountDistinct report ErrBadSnapshot.
func TestCountOnDamagedSnapshot(t *testing.T) {
	view, db := triangleFixture(t)
	rep, err := Build(view, db, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[snapshotHeaderLen+len(raw)/2] ^= 0x01
	if _, err := ReadRepresentation(bytes.NewReader(raw)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("eager load: err = %v, want ErrBadSnapshot", err)
	}
	path := filepath.Join(t.TempDir(), "v.cqs")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenRepresentationMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	vb := relation.Tuple{1, 2}
	if n, err := mapped.Count(vb); n != 0 || !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Count = %d, %v, want 0, ErrBadSnapshot", n, err)
	}
	if n, err := mapped.CountDistinct(vb); n != 0 || !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("CountDistinct = %d, %v, want 0, ErrBadSnapshot", n, err)
	}
}

// TestMaintainedInsertDelete validates snapshot semantics and the rebuild
// policy of the update extension.
func TestMaintainedInsertDelete(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	for _, e := range [][2]relation.Value{{1, 2}, {2, 3}, {3, 1}, {2, 1}, {3, 2}, {1, 3}} {
		r.MustInsert(e[0], e[1])
	}
	db.Add(r)
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	m, err := NewMaintained(view, db, 10, WithTau(2)) // huge budget: manual flush only
	if err != nil {
		t.Fatal(err)
	}
	vb := relation.Tuple{1, 3} // mutual friends of 1 and 3 → y = 2
	it, err := m.Query(vb)
	if err != nil {
		t.Fatal(err)
	}
	if got := Drain(it); len(got) != 1 || got[0][0] != 2 {
		t.Fatalf("initial answer = %v, want [(2)]", got)
	}

	// Buffered inserts must not be visible until flush.
	for _, e := range [][2]relation.Value{{1, 4}, {4, 1}, {4, 3}, {3, 4}} {
		if err := m.Insert("R", relation.Tuple{e[0], e[1]}); err != nil {
			t.Fatal(err)
		}
	}
	it, _ = m.Query(vb)
	if got := Drain(it); len(got) != 1 {
		t.Fatalf("stale snapshot changed: %v", got)
	}
	if m.Pending() != 4 {
		t.Fatalf("pending = %d", m.Pending())
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	it, _ = m.Query(vb)
	if got := Drain(it); len(got) != 2 {
		t.Fatalf("after insert flush: %v, want y ∈ {2, 4}", got)
	}
	if m.Rebuilds() != 1 {
		t.Fatalf("rebuilds = %d", m.Rebuilds())
	}

	// Delete the new edges again.
	for _, e := range [][2]relation.Value{{1, 4}, {4, 1}, {4, 3}, {3, 4}} {
		if err := m.Delete("R", relation.Tuple{e[0], e[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	it, _ = m.Query(vb)
	if got := Drain(it); len(got) != 1 || got[0][0] != 2 {
		t.Fatalf("after delete flush: %v, want [(2)]", got)
	}
}

// TestMaintainedAutoRebuild checks the fraction-based policy triggers on
// query.
func TestMaintainedAutoRebuild(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	for i := 0; i < 20; i++ {
		r.MustInsert(relation.Value(i), relation.Value(i+1))
	}
	db.Add(r)
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	m, err := NewMaintained(view, db, 0.1, WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	// The budget is max(10% of 20, minChurnBatch): the floor governs on a
	// database this small, so the rebuild fires on the insert that pushes
	// pending past minChurnBatch; Quiesce waits for the swap so the test
	// observes it deterministically.
	n := minChurnBatch + 1
	for i := 0; i < n; i++ {
		if err := m.Insert("R", relation.Tuple{100, relation.Value(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Quiesce()
	it, err := m.Query(relation.Tuple{100})
	if err != nil {
		t.Fatal(err)
	}
	if got := Drain(it); len(got) != n {
		t.Fatalf("auto rebuild missing inserts: %v", got)
	}
	if m.Rebuilds() != 1 || m.Pending() != 0 {
		t.Fatalf("rebuilds=%d pending=%d", m.Rebuilds(), m.Pending())
	}
	if err := m.Insert("S", relation.Tuple{1, 2}); err == nil {
		t.Error("unknown relation must fail")
	}
	if err := m.Insert("R", relation.Tuple{1}); err == nil {
		t.Error("arity mismatch must fail")
	}
}

// TestMaintainedRebuildFailure forces a rebuild to fail (a buffered tuple
// with a reserved sentinel value is rejected when the batch is applied)
// and checks that no update is lost: the batch stays buffered, queries
// keep serving the last good snapshot, the error surfaces exactly once
// through Flush, and a later valid Flush applies the survivors.
func TestMaintainedRebuildFailure(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	for i := 0; i < 10; i++ {
		r.MustInsert(relation.Value(i), relation.Value(i+1))
	}
	db.Add(r)
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	m, err := NewMaintained(view, db, 10, WithTau(1)) // manual flush only
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("R", relation.Tuple{50, 51}); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("R", relation.Tuple{relation.NegInf, 1}); err != nil {
		t.Fatal(err) // buffering does not validate sentinels; apply does
	}
	if err := m.Flush(); err == nil {
		t.Fatal("Flush must surface the failed rebuild")
	}
	if m.Pending() != 2 {
		t.Fatalf("failed rebuild dropped the batch: pending = %d, want 2", m.Pending())
	}
	// Queries still serve the last good snapshot, without error.
	it, err := m.Query(relation.Tuple{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := Drain(it); len(got) != 1 || got[0][0] != 1 {
		t.Fatalf("query after failed rebuild = %v", got)
	}
	// Remove the poison pill; the surviving insert must apply.
	if !removePending(m, relation.Tuple{relation.NegInf, 1}) {
		t.Fatal("could not remove poison change")
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	it, _ = m.Query(relation.Tuple{50})
	if got := Drain(it); len(got) != 1 || got[0][0] != 51 {
		t.Fatalf("surviving insert lost: %v", got)
	}
}

// removePending drops one buffered change by tuple value — test-only
// surgery standing in for an application-level dead-letter policy.
func removePending(m *Maintained, tuple relation.Tuple) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, c := range m.pending {
		if c.tuple.Equal(tuple) {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// TestOptimizeDelta exercises the Section-6 decomposition planner: tighter
// space budgets must produce higher (slower) delay exponents.
func TestOptimizeDelta(t *testing.T) {
	db := workload.PathDB(3, 6, 300, 18)
	view := cq.MustParse("Q[bfffbbf](v1, v2, v3, v4, v5, v6, v7) :- " +
		"R1(v1, v2), R2(v2, v3), R3(v3, v4), R4(v4, v5), R5(v5, v6), R6(v6, v7)")
	nv, err := cq.Normalize(view, db)
	if err != nil {
		t.Fatal(err)
	}
	dec := &decomp.Decomposition{
		Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
		Parent: []int{-1, 0, 1, 0},
	}
	n := float64(db.Size())
	tight, err := decomp.OptimizeDelta(nv, dec, logf(n))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := decomp.OptimizeDelta(nv, dec, 2.5*logf(n))
	if err != nil {
		t.Fatal(err)
	}
	if dec.DeltaHeight(tight) < dec.DeltaHeight(loose)-1e-9 {
		t.Errorf("tight budget height %v < loose %v", dec.DeltaHeight(tight), dec.DeltaHeight(loose))
	}
	// The planned assignment must build and answer correctly.
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	s, err := decomp.Build(inst, dec, tight)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ref, err := Build(view, db, WithStrategy(DirectStrategy))
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 10; probe++ {
		vb := relation.Tuple{
			relation.Value(rng.Intn(18)),
			relation.Value(rng.Intn(18)),
			relation.Value(rng.Intn(18)),
		}
		got := s.Query(vb).Drain()
		want := Drain(ref.Query(vb))
		if len(got) != len(want) {
			t.Fatalf("vb=%v: planned structure %d vs direct %d", vb, len(got), len(want))
		}
	}
}

func logf(x float64) float64 { return math.Log(x) }

// TestDecompositionBudgets: the Section-6 planner wires into the
// decomposition strategy — tighter space budgets yield taller (slower)
// delay assignments, and answers stay correct.
func TestDecompositionBudgets(t *testing.T) {
	db := workload.PathDB(13, 6, 250, 16)
	view := cq.MustParse("Q[bfffbbf](v1, v2, v3, v4, v5, v6, v7) :- " +
		"R1(v1, v2), R2(v2, v3), R3(v3, v4), R4(v4, v5), R5(v5, v6), R6(v6, v7)")
	dec := &decomp.Decomposition{
		Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
		Parent: []int{-1, 0, 1, 0},
	}
	n := float64(db.Size())
	tight, err := Build(view, db, WithStrategy(DecompositionStrategy),
		WithDecomposition(dec), WithSpaceBudget(n))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Build(view, db, WithStrategy(DecompositionStrategy),
		WithDecomposition(dec), WithSpaceBudget(n*n))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats().Height < loose.Stats().Height-1e-9 {
		t.Errorf("tight budget height %v < loose %v", tight.Stats().Height, loose.Stats().Height)
	}
	delayB, err := Build(view, db, WithStrategy(DecompositionStrategy),
		WithDecomposition(dec), WithDelayBudget(math.Sqrt(n)))
	if err != nil {
		t.Fatal(err)
	}
	if h := delayB.Stats().Height; h < 0.49 || h > 0.51 {
		t.Errorf("delay budget √|D|: height = %v, want 0.5", h)
	}
	// All three answer identically.
	ref, err := Build(view, db, WithStrategy(DirectStrategy))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for probe := 0; probe < 10; probe++ {
		vb := relation.Tuple{
			relation.Value(rng.Intn(16)),
			relation.Value(rng.Intn(16)),
			relation.Value(rng.Intn(16)),
		}
		want := Drain(ref.Query(vb))
		sortTuples(want)
		for name, rep := range map[string]*Representation{"tight": tight, "loose": loose, "delay": delayB} {
			got := Drain(rep.Query(vb))
			sortTuples(got)
			if len(got) != len(want) {
				t.Fatalf("%s vb=%v: %d vs %d", name, vb, len(got), len(want))
			}
		}
	}
}

// TestDeltaForHeight checks the uniform scaling helper.
func TestDeltaForHeight(t *testing.T) {
	dec := &decomp.Decomposition{
		Bags:   [][]int{{0}, {0, 1}, {1, 2}, {0, 3}},
		Parent: []int{-1, 0, 1, 0},
	}
	d := decomp.DeltaForHeight(dec, 0.6)
	if h := dec.DeltaHeight(d); h < 0.59 || h > 0.61 {
		t.Errorf("height = %v, want 0.6", h)
	}
	if d0 := decomp.DeltaForHeight(dec, 0); dec.DeltaHeight(d0) != 0 {
		t.Error("zero height must give zero assignment")
	}
}

// TestMaintainedExistsProbes: Maintained.Exists answers through the
// snapshot's own membership check, at most the 2 allocations of
// Representation.Exists on a 2048-answer materialized bucket (an
// enumeration cost 5), and still triggers the rebuild a stale view is
// due, as Query does.
func TestMaintainedExistsProbes(t *testing.T) {
	s := relation.NewRelation("S", 2)
	for y := relation.Value(0); y < 2048; y++ {
		s.MustInsert(1, y)
	}
	db := relation.NewDatabase()
	db.Add(s)
	m, err := NewMaintained(cq.MustParse("W[bf](x, y) :- S(x, y)"), db, 0, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := relation.Tuple{1}, relation.Tuple{2}
	for _, c := range []struct {
		vb   relation.Tuple
		want bool
	}{{hit, true}, {miss, false}} {
		if got, err := m.Exists(c.vb); err != nil || got != c.want {
			t.Fatalf("Exists(%v) = %v, %v, want %v", c.vb, got, err, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Exists(hit) }); allocs > 2 {
		t.Fatalf("Exists allocates %.0f times per probe, want at most 2", allocs)
	}

	// A zero staleness budget makes the view stale at the first change,
	// and Replay buffers one without triggering the rebuild: the Exists
	// that finds the view stale must set it going, and the new row shows
	// once it is in.
	if err := m.Replay("S", relation.Tuple{2, 7}, false); err != nil {
		t.Fatal(err)
	}
	m.Exists(miss)
	m.Quiesce()
	if m.Rebuilds() != 1 {
		t.Fatalf("Exists on a stale view left %d rebuilds, want 1", m.Rebuilds())
	}
	if got, err := m.Exists(miss); err != nil || !got {
		t.Fatalf("Exists(%v) after the triggered rebuild = %v, %v, want true", miss, got, err)
	}
}
