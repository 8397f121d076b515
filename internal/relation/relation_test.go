package relation

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTupleCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{}, Tuple{}, 0},
		{Tuple{1}, Tuple{1}, 0},
		{Tuple{1}, Tuple{2}, -1},
		{Tuple{2}, Tuple{1}, 1},
		{Tuple{1, 5}, Tuple{1, 7}, -1},
		{Tuple{1, 7}, Tuple{1, 5}, 1},
		{Tuple{1, 2, 3}, Tuple{1, 2, 3}, 0},
		{Tuple{NegInf}, Tuple{-100}, -1},
		{Tuple{100}, Tuple{PosInf}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTupleComparePanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic comparing tuples of different arity")
		}
	}()
	Tuple{1}.Compare(Tuple{1, 2})
}

func TestTupleCompareAntisymmetric(t *testing.T) {
	f := func(a, b [4]int16) bool {
		ta := Tuple{Value(a[0]), Value(a[1]), Value(a[2]), Value(a[3])}
		tb := Tuple{Value(b[0]), Value(b[1]), Value(b[2]), Value(b[3])}
		return ta.Compare(tb) == -tb.Compare(ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCompareTransitive(t *testing.T) {
	f := func(a, b, c [3]int8) bool {
		ts := []Tuple{
			{Value(a[0]), Value(a[1]), Value(a[2])},
			{Value(b[0]), Value(b[1]), Value(b[2])},
			{Value(c[0]), Value(c[1]), Value(c[2])},
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
		return !ts[1].Less(ts[0]) && !ts[2].Less(ts[1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCloneIndependent(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage with original")
	}
	if Tuple(nil).Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestTupleProject(t *testing.T) {
	a := Tuple{10, 20, 30, 40}
	got := a.Project([]int{3, 1})
	if !got.Equal(Tuple{40, 20}) {
		t.Errorf("Project = %v, want (40, 20)", got)
	}
}

func TestValueString(t *testing.T) {
	if NegInf.String() != "⊥" || PosInf.String() != "⊤" || Value(42).String() != "42" {
		t.Error("Value.String sentinel rendering wrong")
	}
}

func TestAppendEncodeInjective(t *testing.T) {
	f := func(a, b [3]int32) bool {
		ta := Tuple{Value(a[0]), Value(a[1]), Value(a[2])}
		tb := Tuple{Value(b[0]), Value(b[1]), Value(b[2])}
		ea := string(ta.AppendEncode(nil))
		eb := string(tb.AppendEncode(nil))
		return (ea == eb) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation("R", 2)
	r.MustInsert(1, 2)
	r.MustInsert(1, 2)
	r.MustInsert(3, 4)
	r.MustInsert(1, 2)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (set semantics)", r.Len())
	}
	if !r.Contains(Tuple{1, 2}) || !r.Contains(Tuple{3, 4}) {
		t.Error("Contains misses inserted tuples")
	}
	if r.Contains(Tuple{2, 1}) {
		t.Error("Contains reports tuple never inserted")
	}
	if r.Contains(Tuple{1}) {
		t.Error("Contains must reject wrong arity")
	}
}

func TestRelationRejectsSentinels(t *testing.T) {
	r := NewRelation("R", 1)
	if err := r.Insert(Tuple{NegInf}); err == nil {
		t.Error("Insert accepted NegInf")
	}
	if err := r.Insert(Tuple{PosInf}); err == nil {
		t.Error("Insert accepted PosInf")
	}
	if err := r.Insert(Tuple{1, 2}); err == nil {
		t.Error("Insert accepted wrong arity")
	}
}

func TestRelationInsertAfterReadRebuildsIndexes(t *testing.T) {
	r := NewRelation("R", 1)
	r.MustInsert(5)
	ix := r.Index(0)
	if ix.Len() != 1 {
		t.Fatal("index over one row")
	}
	r.MustInsert(3)
	ix2 := r.Index(0)
	if ix2.Len() != 2 {
		t.Fatalf("stale index after insert: len %d", ix2.Len())
	}
	if ix2.ValueAt(0, 0) != 3 {
		t.Error("rebuilt index not sorted")
	}
}

func TestRelationProject(t *testing.T) {
	r := NewRelation("R", 3)
	r.MustInsert(1, 10, 100)
	r.MustInsert(2, 10, 200)
	r.MustInsert(3, 10, 100)
	p := r.Project("P", []int{1, 2})
	if p.Len() != 2 {
		t.Fatalf("projection Len = %d, want 2", p.Len())
	}
	if !p.Contains(Tuple{10, 100}) || !p.Contains(Tuple{10, 200}) {
		t.Error("projection contents wrong")
	}
}

func TestDatabase(t *testing.T) {
	d := NewDatabase()
	r := NewRelation("R", 2)
	r.MustInsert(1, 2)
	s := NewRelation("S", 1)
	s.MustInsert(7)
	d.Add(r)
	d.Add(s)
	if d.Size() != 2 {
		t.Errorf("Size = %d, want 2", d.Size())
	}
	if got := d.Names(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Errorf("Names = %v", got)
	}
	if _, err := d.Relation("T"); err == nil {
		t.Error("missing relation must return error")
	}
	if rr, err := d.Relation("R"); err != nil || rr != r {
		t.Error("Relation lookup failed")
	}
}

func TestFromTuples(t *testing.T) {
	r, err := FromTuples("R", 2, []Tuple{{1, 2}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if _, err := FromTuples("R", 2, []Tuple{{1}}); err == nil {
		t.Error("arity mismatch not rejected")
	}
}

// naiveCount mirrors CountPrefixInterval by scanning.
func naiveCount(tuples []Tuple, cols []int, prefix Tuple, a Value, aInc bool, b Value, bInc bool) int {
	n := 0
	for _, t := range tuples {
		ok := true
		for k, want := range prefix {
			if t[cols[k]] != want {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		v := t[cols[len(prefix)]]
		if aInc && v < a || !aInc && v <= a {
			continue
		}
		if bInc && v > b || !bInc && v >= b {
			continue
		}
		n++
	}
	return n
}

func TestIndexCountsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := NewRelation("R", 3)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			r.MustInsert(Value(rng.Intn(5)), Value(rng.Intn(5)), Value(rng.Intn(5)))
		}
		cols := [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2}, {1, 0}}
		tuples := r.Tuples()
		for _, co := range cols {
			ix := r.Index(co...)
			order := ix.Columns()
			for probe := 0; probe < 30; probe++ {
				plen := rng.Intn(len(order))
				prefix := make(Tuple, plen)
				for k := range prefix {
					prefix[k] = Value(rng.Intn(5))
				}
				a, b := Value(rng.Intn(6)-1), Value(rng.Intn(6)-1)
				aInc, bInc := rng.Intn(2) == 0, rng.Intn(2) == 0
				got := ix.CountPrefixInterval(prefix, a, aInc, b, bInc)
				want := naiveCount(tuples, order, prefix, a, aInc, b, bInc)
				if got != want {
					t.Fatalf("cols %v prefix %v (%v,%v,%v,%v): got %d want %d",
						co, prefix, a, aInc, b, bInc, got, want)
				}
				gotP := ix.CountPrefix(prefix)
				wp := 0
				for _, tp := range tuples {
					ok := true
					for k, want := range prefix {
						if tp[order[k]] != want {
							ok = false
							break
						}
					}
					if ok {
						wp++
					}
				}
				if gotP != wp {
					t.Fatalf("CountPrefix cols %v prefix %v: got %d want %d", co, prefix, gotP, wp)
				}
			}
		}
	}
}

func TestIndexSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := NewRelation("R", 2)
	for i := 0; i < 200; i++ {
		r.MustInsert(Value(rng.Intn(20)), Value(rng.Intn(20)))
	}
	ix := r.Index(1, 0)
	for i := 1; i < ix.Len(); i++ {
		a, b := ix.Tuple(i-1), ix.Tuple(i)
		if a[1] > b[1] || (a[1] == b[1] && a[0] > b[0]) {
			t.Fatalf("index out of order at %d: %v then %v", i, a, b)
		}
	}
}

func TestIndexSeek(t *testing.T) {
	r := NewRelation("R", 1)
	for _, v := range []Value{2, 4, 4, 6, 8} {
		r.MustInsert(v)
	}
	ix := r.Index(0)
	n := ix.Len() // 4 after dedupe: 2,4,6,8
	if n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	if p := ix.SeekGE(0, n, 0, 4); ix.ValueAt(p, 0) != 4 {
		t.Error("SeekGE(4) wrong")
	}
	if p := ix.SeekGT(0, n, 0, 4); ix.ValueAt(p, 0) != 6 {
		t.Error("SeekGT(4) wrong")
	}
	if p := ix.SeekGE(0, n, 0, 100); p != n {
		t.Error("SeekGE past end should return hi")
	}
	lo, hi := ix.IntervalRange(0, n, 0, 2, false, 8, false)
	if hi-lo != 2 { // 4 and 6
		t.Errorf("IntervalRange(2,8 open) count = %d, want 2", hi-lo)
	}
	lo, hi = ix.IntervalRange(0, n, 0, NegInf, true, PosInf, true)
	if hi-lo != n {
		t.Error("unbounded IntervalRange must cover all")
	}
}

func TestIndexRangePanicsOnBadColumn(t *testing.T) {
	r := NewRelation("R", 2)
	r.MustInsert(1, 2)
	for _, cols := range [][]int{{2}, {-1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%v) should panic", cols)
				}
			}()
			r.Index(cols...)
		}()
	}
}

func TestIndexCaching(t *testing.T) {
	r := NewRelation("R", 2)
	r.MustInsert(1, 2)
	if r.Index(0, 1) != r.Index(0, 1) {
		t.Error("index not cached")
	}
	if r.Index(0, 1) == r.Index(1, 0) {
		t.Error("distinct signatures must get distinct indexes")
	}
}

// TestSizeBytesIsSlab: a relation's footprint is its values, 8 bytes each,
// plus one constant, at every arity and cardinality; arity-0 rows are the
// empty, non-nil tuple.
func TestSizeBytesIsSlab(t *testing.T) {
	base := NewRelation("E", 0).SizeBytes()
	for arity := 0; arity <= 3; arity++ {
		for _, n := range []int{0, 1, 7, 100} {
			r := NewRelation("R", arity)
			for i := 0; i < n; i++ {
				tup := make(Tuple, arity)
				for c := range tup {
					tup[c] = Value(i*(c+1) + c)
				}
				r.MustInsert(tup...)
			}
			if got, want := r.SizeBytes(), 8*arity*r.Len()+base; got != want {
				t.Errorf("arity %d, %d rows: SizeBytes = %d, want %d", arity, r.Len(), got, want)
			}
			for i := 0; i < r.Len(); i++ {
				if row := r.Row(i); row == nil || len(row) != arity || cap(row) != arity {
					t.Fatalf("arity %d row %d = %#v (cap %d), want a capped row of its arity", arity, i, row, cap(row))
				}
			}
		}
	}
}
