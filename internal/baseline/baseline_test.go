package baseline

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

func instanceFor(t testing.TB, v *cq.View, db *relation.Database) *join.Instance {
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

// drainBlocks copies out every tuple a SliceIter lends, asking for blocks
// of 1, 2, 3, … rows.
func drainBlocks(it *SliceIter) []relation.Tuple {
	var out []relation.Tuple
	for want := 1; ; want++ {
		blk := it.NextBlock(want)
		if len(blk) == 0 {
			return out
		}
		for _, t := range blk {
			out = append(out, t.Clone())
		}
	}
}

// checkMaterialized probes every bound valuation over the active domains
// and compares the materialized bucket with direct evaluation. The view
// must hold exactly one bucket per non-empty valuation, and its tuple
// count must be their sum.
func checkMaterialized(t *testing.T, name string, inst *join.Instance) {
	t.Helper()
	m, err := Materialize(inst)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDirectEval(inst)
	vb := make(relation.Tuple, len(inst.NV.Bound))
	nonEmpty, tuples := 0, 0
	var probe func(i int)
	probe = func(i int) {
		if i < len(vb) {
			for _, v := range inst.BoundDomain(i) {
				vb[i] = v
				probe(i + 1)
			}
			return
		}
		got := drainBlocks(m.Query(vb))
		want := d.Query(vb).Drain()
		if len(got) != len(want) {
			t.Fatalf("%s vb=%v: materialized %d vs direct %d", name, vb, len(got), len(want))
		}
		for j := range got {
			if !got[j].Equal(want[j]) {
				t.Fatalf("%s vb=%v tuple %d: %v vs %v", name, vb, j, got[j], want[j])
			}
		}
		if m.Contains(vb) != (len(want) > 0) {
			t.Fatalf("%s vb=%v: Contains = %v with %d answers", name, vb, m.Contains(vb), len(want))
		}
		if len(want) > 0 {
			nonEmpty++
			tuples += len(want)
		}
	}
	probe(0)
	if len(m.buckets) != nonEmpty || m.tuples != tuples {
		t.Fatalf("%s: %d buckets holding %d tuples, want %d non-empty valuations holding %d",
			name, len(m.buckets), m.tuples, nonEmpty, tuples)
	}
}

func TestMaterializedMatchesDirectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		view, db := workload.RandomFullView(rng, 2+rng.Intn(3), 1+rng.Intn(3), 4, 2+rng.Intn(12))
		checkMaterialized(t, fmt.Sprintf("trial %d %s", trial, view), instanceFor(t, view, db))
	}
}

// TestMaterializeBoundSources pins the fixed shapes of Materialize's
// bound-valuation source: the fallback to join.BoundCandidates when no
// atom holds every bound variable, a covering atom other than atom 0, and
// all-bound atoms, as the cover and as a filter beside it. Where several
// atoms cover, the smallest is walked.
func TestMaterializeBoundSources(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rel := func(name string, arity, rows int) *relation.Relation {
		r := relation.NewRelation(name, arity)
		for i := 0; i < rows; i++ {
			tup := make(relation.Tuple, arity)
			for j := range tup {
				tup[j] = relation.Value(rng.Intn(6))
			}
			if err := r.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	db := relation.NewDatabase()
	db.Add(rel("R", 2, 24))
	db.Add(rel("S", 2, 10)) // fewer rows than R, so S covers where both do
	db.Add(rel("E", 1, 3))
	db.Add(rel("T", 3, 60))
	cases := []struct {
		view  string
		cover int // index of the atom coveringAtom must pick, -1 for none
	}{
		{"P[bbf](x, z, y) :- R(x, y), S(y, z)", -1},
		{"V[bff](x, y, z) :- R(y, z), S(x, y)", 1},
		{"V[bbf](x, y, z) :- R(y, z), S(x, y)", 1},
		{"V[bbf](x, y, z) :- T(x, y, z), S(x, y)", 1},
		{"V[bff](x, y, z) :- T(x, y, z), E(x)", 1},
		{"V[bbf](x, y, z) :- T(x, y, z), E(x)", 0},
		{"V[bb](x, y) :- R(x, y), S(y, x)", 1},
		{"V[bbf](x, z, y) :- R(x, y), S(y, z), E(x)", -1},
	}
	for _, c := range cases {
		inst := instanceFor(t, cq.MustParse(c.view), db)
		want := (*join.AtomInfo)(nil)
		if c.cover >= 0 {
			want = inst.Atoms[c.cover]
		}
		if got := coveringAtom(inst); got != want {
			t.Fatalf("%s: covering atom %v, want atom %d", c.view, got, c.cover)
		}
		checkMaterialized(t, c.view, inst)
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
	got := drainBlocks(m.Query(relation.Tuple{}))
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
	if got := drainBlocks(ab.Query(hit)); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("triangle %v: got %v, want one empty tuple", hit, got)
	}
	if got := drainBlocks(ab.Query(relation.Tuple{9991, 9992, 9993})); len(got) != 0 {
		t.Errorf("non-triangle accepted: %v", got)
	}
	if got := drainBlocks(ab.Query(relation.Tuple{1})); len(got) != 0 {
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
	before := drainBlocks(old.Query(vb))
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
	got := drainBlocks(next.Query(vb))
	if len(got) != len(before) || !got[0].Equal(before[1]) || !got[1].Equal(adds[0]) {
		t.Fatalf("new view serves %v, from %v minus %v plus %v", got, before, dels, adds)
	}
}

// TestAllBoundLendsEmptyTuple: the one answer of a true all-bound request
// is the empty tuple, never nil, whatever block size is asked for (core's
// tuple view hands the same tuple out of Next).
func TestAllBoundLendsEmptyTuple(t *testing.T) {
	db := workload.TriangleDB(5, 20, 40)
	inst := instanceFor(t, cq.MustParse("V[bbb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	instF := instanceFor(t, cq.MustParse("V(x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	all := NewDirectEval(instF).Query(relation.Tuple{}).Drain()
	if len(all) == 0 {
		t.Fatal("no triangles in sample graph")
	}
	for _, want := range []int{1, 8} {
		blk := NewAllBound(inst).Query(all[0]).NextBlock(want)
		if len(blk) != 1 || blk[0] == nil || len(blk[0]) != 0 {
			t.Fatalf("NextBlock(%d) = %#v, want one empty non-nil tuple", want, blk)
		}
	}
}

// BenchmarkMaterialize prices a materialized build on a prebuilt instance:
// the scan fixture's W[bf](x, y) :- S(x, y) over 64 keys × 8192 answers,
// and the churn fixture's W[bf](x, y) :- S(x, p), T(p, y) — 256 keys each
// joining a quarter of 256 p values, each p fanning out to 32 y — which
// compiles to the full W[bff](x, y, p).
func BenchmarkMaterialize(b *testing.B) {
	scan, _ := scanInstance(b, 64, 8192)
	const domain, fan = 256, 32
	rng := rand.New(rand.NewSource(1))
	s := relation.NewRelation("S", 2)
	for x := 0; x < domain; x++ {
		for _, p := range rng.Perm(domain)[:domain/4] {
			s.MustInsert(relation.Value(x), relation.Value(p))
		}
	}
	tr := relation.NewRelation("T", 2)
	for p := 0; p < domain; p++ {
		for y := 0; y < fan; y++ {
			tr.MustInsert(relation.Value(p), relation.Value(y))
		}
	}
	db := relation.NewDatabase()
	db.Add(s)
	db.Add(tr)
	churn := instanceFor(b, cq.MustParse("W[bf](x, y) :- S(x, p), T(p, y)").ExtendToFull(), db)
	for _, c := range []struct {
		name string
		inst *join.Instance
	}{{"scan", scan}, {"churn", churn}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Materialize(c.inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
