package decomp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// pathView6 is the 6-path query of Figure 2: variables v1..v7 (ids 0..6),
// bound set {v1, v5, v6}.
func pathView6() *cq.View {
	return cq.MustParse("Q[bfffbbf](v1, v2, v3, v4, v5, v6, v7) :- " +
		"R1(v1, v2), R2(v2, v3), R3(v3, v4), R4(v4, v5), R5(v5, v6), R6(v6, v7)")
}

// figure2Decomposition is the right-hand decomposition of Figure 2.
func figure2Decomposition() *Decomposition {
	return &Decomposition{
		Bags: [][]int{
			{0, 4, 5},    // root = {v1, v5, v6}
			{0, 1, 3, 4}, // t1 = {v2, v4 | v1, v5}
			{1, 2, 3},    // t2 = {v3 | v2, v4}
			{5, 6},       // t3 = {v7 | v6}
		},
		Parent: []int{-1, 0, 1, 0},
	}
}

func TestFigure2Validates(t *testing.T) {
	v := pathView6()
	h := hypergraphOf(t, v)
	dec := figure2Decomposition()
	if err := dec.Validate(h, []int{0, 4, 5}); err != nil {
		t.Fatalf("Figure 2 decomposition invalid: %v", err)
	}
	// Bound/free splits must match the figure's "free | bound" labels.
	if got := dec.BoundOf(1); !equalInts(got, []int{0, 4}) {
		t.Errorf("BoundOf(t1) = %v, want [0 4]", got)
	}
	if got := dec.FreeOf(1); !equalInts(got, []int{1, 3}) {
		t.Errorf("FreeOf(t1) = %v, want [1 3]", got)
	}
	if got := dec.BoundOf(2); !equalInts(got, []int{1, 3}) {
		t.Errorf("BoundOf(t2) = %v, want [1 3]", got)
	}
	if got := dec.FreeOf(2); !equalInts(got, []int{2}) {
		t.Errorf("FreeOf(t2) = %v, want [2]", got)
	}
	if got := dec.BoundOf(3); !equalInts(got, []int{5}) {
		t.Errorf("BoundOf(t3) = %v, want [5]", got)
	}
	if got := dec.FreeOf(3); !equalInts(got, []int{6}) {
		t.Errorf("FreeOf(t3) = %v, want [6]", got)
	}
}

// TestExample9Widths reproduces Example 9: δ-width 5/3, δ-height 1/2, and
// u⁺ values 2, 2, 1 for the Figure-2 decomposition under δ = (1/3, 1/6, 0).
func TestExample9Widths(t *testing.T) {
	v := pathView6()
	h := hypergraphOf(t, v)
	dec := figure2Decomposition()
	delta := []float64{0, 1.0 / 3, 1.0 / 6, 0}
	w, err := dec.Widths(h, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(w.Width, 5.0/3, 1e-6) {
		t.Errorf("δ-width = %v, want 5/3", w.Width)
	}
	if got := dec.DeltaHeight(delta); !approx(got, 0.5, 1e-9) {
		t.Errorf("δ-height = %v, want 1/2", got)
	}
	if !approx(w.PerBag[1].USum, 2, 1e-6) || !approx(w.PerBag[2].USum, 2, 1e-6) || !approx(w.PerBag[3].USum, 1, 1e-6) {
		t.Errorf("u⁺ = (%v, %v, %v), want (2, 2, 1)",
			w.PerBag[1].USum, w.PerBag[2].USum, w.PerBag[3].USum)
	}
	if !approx(w.UStar, 2, 1e-6) {
		t.Errorf("u* = %v, want 2", w.UStar)
	}
}

// TestExample16 checks fhw(H | V_b) = 2 > fhw(H) = 1 for the 2-path with
// both endpoints bound.
func TestExample16(t *testing.T) {
	v := cq.MustParse("Q[bfb](x, y, z) :- R(x, y), S(y, z)")
	h := hypergraphOf(t, v)
	res, err := SearchConnex(h, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Width, 2, 1e-6) {
		t.Errorf("fhw(H | {x,z}) = %v, want 2", res.Width)
	}
	full, err := SearchConnex(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(full.Width, 1, 1e-6) {
		t.Errorf("fhw(H) = %v, want 1", full.Width)
	}
}

// TestExample17Figure7 checks fhw(H | V_b) = 3/2 < fhw(H) = 2 for the
// Figure-7 hypergraph.
func TestExample17Figure7(t *testing.T) {
	v := cq.MustParse("Q[bbbbf](v1, v2, v3, v4, v5) :- " +
		"R(v1, v2), W(v1, v5), V(v2, v5), U(v1, v3), T(v2, v4), S(v3, v4)")
	h := hypergraphOf(t, v)
	res, err := SearchConnex(h, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Width, 1.5, 1e-6) {
		t.Errorf("fhw(H | V_b) = %v, want 3/2 (Example 17)", res.Width)
	}
	full, err := SearchConnex(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(full.Width, 2, 1e-6) {
		t.Errorf("fhw(H) = %v, want 2 (Example 17)", full.Width)
	}
}

// hypergraphOf normalizes the view over a dummy database providing each
// relation with matching arity.
func hypergraphOf(t *testing.T, v *cq.View) cq.Hypergraph {
	t.Helper()
	db := relation.NewDatabase()
	for _, a := range v.Body {
		if _, err := db.Relation(a.Relation); err == nil {
			continue
		}
		r := relation.NewRelation(a.Relation, len(a.Terms))
		row := make(relation.Tuple, len(a.Terms))
		for i := range row {
			row[i] = relation.Value(i)
		}
		if err := r.Insert(row); err != nil {
			t.Fatal(err)
		}
		db.Add(r)
	}
	nv, err := cq.Normalize(v, db)
	if err != nil {
		t.Fatal(err)
	}
	return nv.Hypergraph()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestValidateRejectsBadDecompositions(t *testing.T) {
	v := pathView6()
	h := hypergraphOf(t, v)
	vb := []int{0, 4, 5}
	cases := []struct {
		name string
		dec  Decomposition
	}{
		{"no bags", Decomposition{}},
		{"root not vb", Decomposition{Bags: [][]int{{0}}, Parent: []int{-1}}},
		{"edge uncovered", Decomposition{Bags: [][]int{{0, 4, 5}}, Parent: []int{-1}}},
		{"parent after child", Decomposition{
			Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
			Parent: []int{-1, 2, 1, 0},
		}},
		{"running intersection", Decomposition{
			Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}, {1, 2}},
			Parent: []int{-1, 0, 1, 0, 3},
		}},
		{"parent pointer range", Decomposition{
			Bags:   [][]int{{0, 4, 5}, {0, 1, 2, 3, 4, 5, 6}},
			Parent: []int{-1, 7},
		}},
	}
	for _, c := range cases {
		if err := (&c.dec).Validate(h, vb); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestFromEliminationOrderErrors(t *testing.T) {
	v := pathView6()
	h := hypergraphOf(t, v)
	vb := []int{0, 4, 5}
	if _, err := FromEliminationOrder(h, vb, []int{0, 1, 2, 3}); err == nil {
		t.Error("eliminating a bound variable must fail")
	}
	if _, err := FromEliminationOrder(h, vb, []int{1, 1, 2, 6}); err == nil {
		t.Error("repeated vertex must fail")
	}
	if _, err := FromEliminationOrder(h, vb, []int{1, 2}); err == nil {
		t.Error("incomplete order must fail")
	}
	if _, err := FromEliminationOrder(h, vb, []int{1, 2, 3, 99}); err == nil {
		t.Error("out-of-range vertex must fail")
	}
}

func TestSearchConnexProducesValidDecompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		view, db := workload.RandomFullView(rng, 2+rng.Intn(4), 1+rng.Intn(3), 3, 4)
		nv, err := cq.Normalize(view, db)
		if err != nil {
			t.Fatal(err)
		}
		h := nv.Hypergraph()
		res, err := SearchConnex(h, nv.Bound)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Dec.Validate(h, nv.Bound); err != nil {
			t.Fatalf("trial %d: search produced invalid decomposition: %v", trial, err)
		}
	}
}

// buildInstance normalizes a view against a database.
func buildInstance(t *testing.T, v *cq.View, db *relation.Database) (*cq.NormalizedView, *join.Instance) {
	t.Helper()
	nv, err := cq.Normalize(v, db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	return nv, inst
}

// TestFigure2StructureEndToEnd builds the Theorem-2 structure over real
// path data with the Figure-2 decomposition and compares every access
// request against the naive join, across delay assignments.
func TestFigure2StructureEndToEnd(t *testing.T) {
	db := workload.PathDB(11, 6, 120, 12)
	_, inst := buildInstance(t, pathView6(), db)
	dec := figure2Decomposition()
	for _, delta := range [][]float64{
		{0, 0, 0, 0},
		{0, 1.0 / 3, 1.0 / 6, 0},
		{0, 0.5, 0.5, 0.5},
	} {
		s, err := Build(inst, dec, delta)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for probe := 0; probe < 40; probe++ {
			vb := relation.Tuple{
				relation.Value(rng.Intn(12)),
				relation.Value(rng.Intn(12)),
				relation.Value(rng.Intn(12)),
			}
			got := s.Query(vb).Drain()
			want := join.NaiveJoin(inst, vb, interval.Box{})
			compareSets(t, got, want, "delta=%v vb=%v", delta, vb)
		}
	}
}

// compareSets sorts got and compares against want (already sorted).
func compareSets(t *testing.T, got, want []relation.Tuple, format string, args ...any) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
	if len(got) != len(want) {
		t.Fatalf(format+": got %d tuples %v, want %d %v", append(args, len(got), got, len(want), want)...)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf(format+": tuple %d: got %v want %v", append(args, i, got[i], want[i])...)
		}
	}
	// Distinctness (no duplicates after sorting).
	for i := 1; i < len(got); i++ {
		if got[i].Equal(got[i-1]) {
			t.Fatalf(format+": duplicate tuple %v", append(args, got[i])...)
		}
	}
}

// TestStructureAgainstNaiveRandom is the central Theorem-2 soundness
// property: on random views, searched decompositions and random delay
// assignments, Algorithm 5 enumerates exactly the join result.
func TestStructureAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	deltas := []float64{0, 0.2, 0.5}
	for trial := 0; trial < 50; trial++ {
		view, db := workload.RandomFullView(rng, 2+rng.Intn(4), 1+rng.Intn(3), 4, 2+rng.Intn(12))
		nv, inst := buildInstance(t, view, db)
		res, err := SearchConnex(nv.Hypergraph(), nv.Bound)
		if err != nil {
			t.Fatal(err)
		}
		delta := make([]float64, len(res.Dec.Bags))
		for i := 1; i < len(delta); i++ {
			delta[i] = deltas[rng.Intn(len(deltas))]
		}
		s, err := Build(inst, res.Dec, delta)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, view, err)
		}
		for probe := 0; probe < 6; probe++ {
			vb := make(relation.Tuple, len(nv.Bound))
			for i := range vb {
				vb[i] = relation.Value(rng.Intn(4))
			}
			got := s.Query(vb).Drain()
			want := join.NaiveJoin(inst, vb, interval.Box{})
			compareSets(t, got, want, "trial %d %s vb=%v", trial, view, vb)
		}
	}
}

// TestAllBoundView exercises the boolean case where the decomposition has
// only the root bag.
func TestAllBoundView(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	r.MustInsert(2, 3)
	db.Add(r)
	_, inst := buildInstance(t, cq.MustParse("Q[bb](x, y) :- R(x, y)"), db)
	dec := &Decomposition{Bags: [][]int{{0, 1}}, Parent: []int{-1}}
	s, err := Build(inst, dec, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Query(relation.Tuple{1, 2}).Drain(); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("present row: got %v, want one empty tuple", got)
	}
	if got := s.Query(relation.Tuple{1, 3}).Drain(); len(got) != 0 {
		t.Errorf("absent row: got %v, want empty", got)
	}
}

// TestProposition4ConstantDelay verifies that the all-zero delay assignment
// yields per-bag thresholds of 1 and the δ-width equals fhw(H|V_b).
func TestProposition4ConstantDelay(t *testing.T) {
	db := workload.PathDB(5, 6, 80, 10)
	_, inst := buildInstance(t, pathView6(), db)
	dec := figure2Decomposition()
	s, err := Build(inst, dec, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	for tbag, tau := range s.BagTaus() {
		if tbag != 0 && s.bags[tbag] != nil && s.bags[tbag].prim != nil && tau != 1 {
			t.Errorf("bag %d τ = %v, want 1 under δ ≡ 0", tbag, tau)
		}
	}
	st := s.Stats()
	if !approx(st.Height, 0, 1e-12) {
		t.Errorf("δ-height = %v, want 0", st.Height)
	}
	// δ ≡ 0 width is max ρ*(bag) = 2 for the Figure-2 decomposition
	// (bag t1 needs two weight-1 edges).
	if !approx(st.Width, 2, 1e-6) {
		t.Errorf("width = %v, want 2", st.Width)
	}
}

func TestBuildValidation(t *testing.T) {
	db := workload.PathDB(5, 6, 10, 5)
	_, inst := buildInstance(t, pathView6(), db)
	dec := figure2Decomposition()
	if _, err := Build(inst, dec, []float64{0}); err == nil {
		t.Error("wrong-length delta must fail")
	}
	if _, err := Build(inst, dec, []float64{0, -1, 0, 0}); err == nil {
		t.Error("negative delta must fail")
	}
	bad := &Decomposition{Bags: [][]int{{0}}, Parent: []int{-1}}
	if _, err := Build(inst, bad, []float64{0}); err == nil {
		t.Error("invalid decomposition must fail")
	}
}

// TestStatsAndAccessors smoke-tests the reporting surface.
func TestStatsAndAccessors(t *testing.T) {
	db := workload.PathDB(5, 6, 60, 8)
	_, inst := buildInstance(t, pathView6(), db)
	dec := figure2Decomposition()
	delta := []float64{0, 1.0 / 3, 1.0 / 6, 0}
	s, err := Build(inst, dec, delta)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Bags != 3 {
		t.Errorf("Bags = %d, want 3", st.Bags)
	}
	if st.TreeNodes == 0 || st.Bytes == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if !approx(st.Width, 5.0/3, 1e-6) || !approx(st.Height, 0.5, 1e-9) {
		t.Errorf("width/height = %v/%v", st.Width, st.Height)
	}
	if s.Decomposition() != dec {
		t.Error("Decomposition() identity")
	}
	if s.DBSize() != db.Size() {
		t.Errorf("DBSize = %d, want %d", s.DBSize(), db.Size())
	}
}

// TestUniformDeltaAndLogBase covers the small helpers.
func TestUniformDeltaAndLogBase(t *testing.T) {
	dec := figure2Decomposition()
	d := UniformDelta(dec, 0.25)
	if d[0] != 0 || d[1] != 0.25 || d[3] != 0.25 {
		t.Errorf("UniformDelta = %v", d)
	}
	if LogBase(100, 10) != 0.5 {
		t.Errorf("LogBase(100, 10) = %v, want 0.5", LogBase(100, 10))
	}
	if LogBase(1, 10) != 0 || LogBase(100, 1) != 0 {
		t.Error("degenerate LogBase must be 0")
	}
}
