package decomp

import (
	"math"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// TestRedundantBagWithoutFreeVars exercises the membership-only bag path:
// a bag entirely contained in its ancestors contributes only semijoin
// checks, and Algorithm 5 must step over it transparently.
func TestRedundantBagWithoutFreeVars(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	s := relation.NewRelation("S", 2)
	for i := 0; i < 30; i++ {
		r.MustInsert(relation.Value(i%6), relation.Value((i*7)%9))
		s.MustInsert(relation.Value((i*7)%9), relation.Value(i%5))
	}
	db.Add(r)
	db.Add(s)
	v := cq.MustParse("Q[bff](x, y, z) :- R(x, y), S(y, z)")
	nv, err := cq.Normalize(v, db)
	if err != nil {
		t.Fatal(err)
	}
	// Chain with a redundant middle bag {x, y} ⊆ anc of its child.
	dec := &Decomposition{
		Bags:   [][]int{{0}, {0, 1}, {0, 1}, {1, 2}},
		Parent: []int{-1, 0, 1, 2},
	}
	if err := dec.Validate(nv.Hypergraph(), nv.Bound); err != nil {
		t.Fatal(err)
	}
	if got := dec.FreeOf(2); len(got) != 0 {
		t.Fatalf("bag 2 must have no free variables, got %v", got)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(inst, dec, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	for x := relation.Value(0); x < 7; x++ {
		got := st.Query(relation.Tuple{x}).Drain()
		want := join.NaiveJoin(inst, relation.Tuple{x}, interval.Box{})
		if len(got) != len(want) {
			t.Fatalf("x=%v: %d vs %d tuples", x, len(got), len(want))
		}
	}
}

// TestPreorderAndChildren pins the traversal orders used by Algorithm 5.
func TestPreorderAndChildren(t *testing.T) {
	dec := &Decomposition{
		Bags:   [][]int{{0}, {0, 1}, {1, 2}, {0, 3}, {3, 4}},
		Parent: []int{-1, 0, 1, 0, 3},
	}
	pre := dec.Preorder()
	want := []int{1, 2, 3, 4}
	if len(pre) != len(want) {
		t.Fatalf("preorder = %v", pre)
	}
	for i := range want {
		if pre[i] != want[i] {
			t.Fatalf("preorder = %v, want %v", pre, want)
		}
	}
	if c := dec.Children(0); len(c) != 2 || c[0] != 1 || c[1] != 3 {
		t.Errorf("Children(0) = %v", c)
	}
}

// TestSearchConnexStarAndTriangle checks searched widths on two more
// shapes: the star with z free has fhw(H|Vb) = 1 (one bag per edge pair);
// the triangle with a single bound vertex keeps width 3/2.
func TestSearchConnexStarAndTriangle(t *testing.T) {
	star3 := cq.Hypergraph{N: 4, Edges: [][]int{{0, 3}, {1, 3}, {2, 3}}}
	res, err := SearchConnex(star3, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Bag {z} ∪ all bound neighbors: {0,1,2,3} needs cover 3... the
	// elimination bag is {3, 0, 1, 2} with ρ* = 3 (each edge covers one
	// bound vertex + z).
	if res.Width < 2.99 || res.Width > 3.01 {
		t.Errorf("star3 fhw(H|Vb) = %v, want 3", res.Width)
	}

	triangle := cq.Hypergraph{N: 3, Edges: [][]int{{0, 1}, {1, 2}, {2, 0}}}
	resT, err := SearchConnex(triangle, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if resT.Width < 1.49 || resT.Width > 1.51 {
		t.Errorf("triangle fhw(H|{x}) = %v, want 3/2", resT.Width)
	}
}

// TestWidthsMonotoneInDelta: increasing a bag's delay exponent can only
// decrease (never increase) its ρ⁺ and hence the width.
func TestWidthsMonotoneInDelta(t *testing.T) {
	h := cq.Hypergraph{N: 7, Edges: [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}}
	dec := &Decomposition{
		Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
		Parent: []int{-1, 0, 1, 0},
	}
	prev := -1.0
	for _, x := range []float64{0, 0.1, 0.25, 0.5, 1} {
		w, err := dec.Widths(h, UniformDelta(dec, x))
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && w.Width > prev+1e-9 {
			t.Errorf("width increased with delta: %v -> %v at x=%v", prev, w.Width, x)
		}
		prev = w.Width
	}
}

// TestBagTausMatchDelta: thresholds must be |D|^{δ(t)}.
func TestBagTausMatchDelta(t *testing.T) {
	db := workload.PathDB(3, 6, 100, 12)
	v := cq.MustParse("Q[bfffbbf](v1, v2, v3, v4, v5, v6, v7) :- " +
		"R1(v1, v2), R2(v2, v3), R3(v3, v4), R4(v4, v5), R5(v5, v6), R6(v6, v7)")
	nv, err := cq.Normalize(v, db)
	if err != nil {
		t.Fatal(err)
	}
	dec := &Decomposition{
		Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
		Parent: []int{-1, 0, 1, 0},
	}
	delta := []float64{0, 0.5, 0.25, 0}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(inst, dec, delta)
	if err != nil {
		t.Fatal(err)
	}
	taus := s.BagTaus()
	n := float64(s.DBSize())
	for tb := 1; tb < 4; tb++ {
		want := pow(n, delta[tb])
		if taus[tb] < want*0.999 || taus[tb] > want*1.001 {
			t.Errorf("bag %d τ = %v, want |D|^%v = %v", tb, taus[tb], delta[tb], want)
		}
	}
}

func pow(b, e float64) float64 { return math.Pow(b, e) }
