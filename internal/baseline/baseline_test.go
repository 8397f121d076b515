package baseline

import (
	"math/rand"
	"sort"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

func instanceFor(t *testing.T, v *cq.View, db *relation.Database) *join.Instance {
	t.Helper()
	nv, err := cq.Normalize(v, db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestMaterializedMatchesDirectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		view, db := workload.RandomFullView(rng, 2+rng.Intn(3), 1+rng.Intn(3), 4, 2+rng.Intn(12))
		inst := instanceFor(t, view, db)
		m, err := Materialize(inst)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDirectEval(inst)
		for probe := 0; probe < 8; probe++ {
			vb := make(relation.Tuple, len(inst.NV.Bound))
			for i := range vb {
				vb[i] = relation.Value(rng.Intn(4))
			}
			got := m.Query(vb).Drain()
			want := d.Query(vb).Drain()
			if len(got) != len(want) {
				t.Fatalf("trial %d vb=%v: materialized %d vs direct %d", trial, vb, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d vb=%v tuple %d: %v vs %v", trial, vb, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDirectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		view, db := workload.RandomFullView(rng, 2+rng.Intn(3), 1+rng.Intn(2), 4, 2+rng.Intn(10))
		inst := instanceFor(t, view, db)
		d := NewDirectEval(inst)
		vb := make(relation.Tuple, len(inst.NV.Bound))
		for i := range vb {
			vb[i] = relation.Value(rng.Intn(4))
		}
		got := d.Query(vb).Drain()
		want := join.NaiveJoin(inst, vb, interval.Box{})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d tuple %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
		if sorted := sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Less(got[j]) }); !sorted {
			t.Fatal("direct evaluation must be lexicographic")
		}
	}
}

func TestMaterializeFullEnumeration(t *testing.T) {
	db := workload.TriangleDB(3, 30, 60)
	inst := instanceFor(t, cq.MustParse("V(x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	m, err := Materialize(inst)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Query(relation.Tuple{}).Drain()
	want := join.NaiveJoin(inst, relation.Tuple{}, interval.Box{})
	if len(got) != len(want) {
		t.Fatalf("full enumeration: %d vs %d", len(got), len(want))
	}
	st := m.Stats()
	if st.Tuples != len(want) || st.Bytes == 0 {
		t.Errorf("stats = %+v, want %d tuples", st, len(want))
	}
}

func TestAllBound(t *testing.T) {
	db := workload.TriangleDB(5, 20, 40)
	inst := instanceFor(t, cq.MustParse("V[bbb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	ab := NewAllBound(inst)
	// Find one actual triangle via direct evaluation of the all-free view.
	instF := instanceFor(t, cq.MustParse("V(x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	all := NewDirectEval(instF).Query(relation.Tuple{}).Drain()
	if len(all) == 0 {
		t.Skip("no triangles in sample graph")
	}
	hit := all[0]
	if got := ab.Query(hit).Drain(); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("triangle %v: got %v, want one empty tuple", hit, got)
	}
	if got := ab.Query(relation.Tuple{9991, 9992, 9993}).Drain(); len(got) != 0 {
		t.Errorf("non-triangle accepted: %v", got)
	}
	if got := ab.Query(relation.Tuple{1}).Drain(); len(got) != 0 {
		t.Error("malformed valuation accepted")
	}
}

func TestDirectIterOpsAndEmptyValuation(t *testing.T) {
	db := workload.TriangleDB(7, 25, 50)
	inst := instanceFor(t, cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	d := NewDirectEval(inst)
	// Use an existing edge so the all-bound atom R(z, x) passes and the
	// enumeration actually runs.
	r, err := db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	edge := r.Row(0)
	it := d.Query(relation.Tuple{edge[1], edge[0]}) // x = head, z = tail
	it.Drain()
	if it.Ops() == 0 {
		t.Error("ops counter must advance")
	}
	if got := d.Query(relation.Tuple{0}).Drain(); len(got) != 0 {
		t.Error("malformed valuation must yield nothing")
	}
}

// TestApplyOutputDeltaKeepsLentBlocks: a block lent by the old view keeps
// its values while ApplyOutputDelta deletes from and inserts into the very
// bucket it came from, and the old view keeps serving its own answers.
func TestApplyOutputDeltaKeepsLentBlocks(t *testing.T) {
	inst, _ := scanInstance(t, 2, 8)
	old, err := Materialize(inst)
	if err != nil {
		t.Fatal(err)
	}
	vb := relation.Tuple{1}
	before := old.Query(vb).Drain()
	it := old.Query(vb)
	lent := it.NextBlock(4)
	want := make([]relation.Tuple, len(lent))
	for i, row := range lent {
		want[i] = row.Clone()
	}
	dels := []relation.Tuple{before[0], before[2]}
	adds := []relation.Tuple{{before[1][0] + 1}, {before[3][0] + 1}}
	next, err := old.ApplyOutputDelta(inst.NV, []relation.Tuple{vb, vb}, dels, []relation.Tuple{vb, vb}, adds)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range lent {
		if !row.Equal(want[i]) {
			t.Fatalf("lent row %d changed from %v to %v", i, want[i], row)
		}
	}
	rest := it.NextBlock(len(before))
	if got := len(lent) + len(rest); got != len(before) {
		t.Fatalf("old iterator served %d answers after the delta, want %d", got, len(before))
	}
	for i, row := range rest {
		if !row.Equal(before[len(lent)+i]) {
			t.Fatalf("old iterator answer %d = %v, want %v", len(lent)+i, row, before[len(lent)+i])
		}
	}
	got := next.Query(vb).Drain()
	if len(got) != len(before) || !got[0].Equal(before[1]) || !got[1].Equal(adds[0]) {
		t.Fatalf("new view serves %v, from %v minus %v plus %v", got, before, dels, adds)
	}
}

// TestAllBoundLendsEmptyTuple: the one answer of a true all-bound request
// is the empty tuple, never nil, on both the per-tuple and block paths.
func TestAllBoundLendsEmptyTuple(t *testing.T) {
	db := workload.TriangleDB(5, 20, 40)
	inst := instanceFor(t, cq.MustParse("V[bbb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	instF := instanceFor(t, cq.MustParse("V(x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	all := NewDirectEval(instF).Query(relation.Tuple{}).Drain()
	if len(all) == 0 {
		t.Fatal("no triangles in sample graph")
	}
	blk := NewAllBound(inst).Query(all[0]).NextBlock(8)
	if len(blk) != 1 || blk[0] == nil || len(blk[0]) != 0 {
		t.Fatalf("block = %#v, want one empty non-nil tuple", blk)
	}
	if tup, ok := NewAllBound(inst).Query(all[0]).Next(); !ok || tup == nil || len(tup) != 0 {
		t.Fatalf("Next = %#v, %v, want the empty non-nil tuple", tup, ok)
	}
}
