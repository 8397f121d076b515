package decomp

import (
	"math/rand"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// figure6View builds a query whose decomposition matches Figure 6: a bushy
// tree where pre-order predecessors cross between sibling subtrees —
// predecessor({v6|v4}) = {v5|v4} and predecessor({v7|v3}) = {v6|v4}.
func figure6View(t *testing.T, rng *rand.Rand, domain, rows int) (*cq.NormalizedView, *join.Instance) {
	t.Helper()
	db := relation.NewDatabase()
	mk := func(name string, arity int) {
		r := relation.NewRelation(name, arity)
		for i := 0; i < rows; i++ {
			tu := make(relation.Tuple, arity)
			for j := range tu {
				tu[j] = relation.Value(rng.Intn(domain))
			}
			if err := r.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
		db.Add(r)
	}
	mk("A", 2) // (v1, v2)
	mk("B", 2) // (v1, v3)
	mk("C", 2) // (v2, v3)
	mk("D", 2) // (v3, v4)
	mk("E", 2) // (v4, v5)
	mk("F", 2) // (v4, v6)
	mk("G", 2) // (v3, v7)
	v := cq.MustParse("Q[bbfffff](v1, v2, v3, v4, v5, v6, v7) :- " +
		"A(v1, v2), B(v1, v3), C(v2, v3), D(v3, v4), E(v4, v5), F(v4, v6), G(v3, v7)")
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

// figure6Decomposition mirrors the modified tree of Figure 6.
func figure6Decomposition() *Decomposition {
	return &Decomposition{
		Bags: [][]int{
			{0, 1},    // root {v1, v2}
			{0, 1, 2}, // {v3 | v1, v2}
			{2, 3},    // {v4 | v3}
			{3, 4},    // {v5 | v4}
			{3, 5},    // {v6 | v4}
			{2, 6},    // {v7 | v3}
		},
		Parent: []int{-1, 0, 1, 2, 2, 1},
	}
}

func TestFigure6BranchingEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	nv, inst := figure6View(t, rng, 7, 60)
	dec := figure6Decomposition()
	if err := dec.Validate(nv.Hypergraph(), nv.Bound); err != nil {
		t.Fatal(err)
	}
	for _, delta := range [][]float64{
		make([]float64, 6),
		{0, 0.2, 0.1, 0.3, 0.1, 0.2},
	} {
		s, err := Build(inst, dec, delta)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 40; probe++ {
			vb := relation.Tuple{relation.Value(rng.Intn(7)), relation.Value(rng.Intn(7))}
			got := s.Query(vb).Drain()
			want := join.NaiveJoin(inst, vb, interval.Box{})
			compareSets(t, got, want, "delta=%v vb=%v", delta, vb)
		}
	}
}

// TestFigure6PreorderCrossesSubtrees pins the pre-order walk underlying the
// predecessor pointers of Figure 6: {v5|v4}, then {v6|v4}, then {v7|v3}.
func TestFigure6PreorderCrossesSubtrees(t *testing.T) {
	dec := figure6Decomposition()
	pre := dec.Preorder()
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if pre[i] != want[i] {
			t.Fatalf("preorder = %v, want %v", pre, want)
		}
	}
	// The paper's predecessor of bag 5 ({v7|v3}) is bag 4 ({v6|v4}), which
	// lives in a different subtree — exactly position 5's pre-order
	// neighbor.
	if pre[4] != 5 || pre[3] != 4 {
		t.Fatalf("crossing predecessor structure broken: %v", pre)
	}
}
