package experiments

import (
	"math"
	"math/rand"
	"time"

	"cqrep/internal/bench"
	"cqrep/internal/cq"
	"cqrep/internal/decomp"
	"cqrep/internal/fractional"
	"cqrep/internal/primitive"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// E13DictionaryAblation isolates the role of the heavy-pair dictionary: the
// same delay-balanced tree with the dictionary dropped degenerates to
// evaluating the root interval from scratch, so worst-case delay explodes
// on requests with empty or skewed answers. This validates that the
// dictionary — not the tree alone — carries the Theorem-1 delay guarantee.
func E13DictionaryAblation(edges, queries int, seed int64) []*bench.Table {
	// Adversarial instance for emptiness detection: two hubs whose
	// neighborhoods are huge but disjoint, on top of a random background
	// graph. The access request (hub1, hub2) is heavy — both degree lists
	// are long — yet has an empty answer. The dictionary answers it from
	// one 0-bit; without the dictionary the structure must intersect the
	// neighbor lists from scratch.
	rng := rand.New(rand.NewSource(seed + 13))
	r := workload.HubPairGraph(rng, "R", edges)
	db := relation.NewDatabase()
	db.Add(r)
	const hub1, hub2 = 1, 2
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	_, inst := mustInstance(view, db)
	n := r.Len()
	tau := math.Pow(float64(n), 0.25)
	u := fractional.Cover{0.5, 0.5, 0.5}

	// The empty-but-heavy request plus random edge requests.
	vbs := []relation.Tuple{{hub1, hub2}, {hub2, hub1}}
	for len(vbs) < queries {
		row := r.Row(rng.Intn(n))
		vbs = append(vbs, relation.Tuple{row[0], row[1]})
	}

	t := bench.NewTable("E13 Dictionary ablation (hub-pair triangle, tau = N^0.25)",
		"variant", "dict entries", "empty-request ops", "max delay ops", "total ops")
	t.Note = "the empty request is the heavy hub pair with disjoint neighborhoods"

	exhaustive, err := primitive.BuildExhaustive(inst, u, tau)
	if err != nil {
		panic(err)
	}
	agg0 := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return exhaustive.Query(vb) })
	hubOps0 := bench.Measure(exhaustive.Query(relation.Tuple{hub1, hub2}))
	t.Add("exhaustive dictionary", exhaustive.Stats().DictEntries, hubOps0.TotalOps, agg0.MaxOps, agg0.TotalOps)

	prop13 := buildPrimitive(inst, u, tau)
	agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return prop13.Query(vb) })
	hubOps := bench.Measure(prop13.Query(relation.Tuple{hub1, hub2}))
	t.Add("Prop-13 dictionary", prop13.Stats().DictEntries, hubOps.TotalOps, agg.MaxOps, agg.TotalOps)

	without := buildPrimitive(inst, u, tau)
	without.DropDictionary()
	agg2 := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return without.Query(vb) })
	hubOps2 := bench.Measure(without.Query(relation.Tuple{hub1, hub2}))
	t.Add("dictionary dropped", 0, hubOps2.TotalOps, agg2.MaxOps, agg2.TotalOps)
	return []*bench.Table{t}
}

// E14BuildScaling measures compression time T_C against data size and τ,
// validating the Theorem-1 bound T_C = O~(|D| + Π|R_F|^{u_F}) — in
// particular, that build time is governed by the AGM term, not by τ. The
// last row builds the point-ndjson benchmark workload's structure at its
// fixed size: the hub-heavy SkewedTriangleDB(42, 2000, 20000) under the
// all-ones cover at τ = 8.
func E14BuildScaling(sizes []int, seed int64) []*bench.Table {
	t := bench.NewTable("E14 Compression time scaling (Theorem 1, triangle V^bfb)",
		"graph", "N", "tau", "build time", "dict entries", "ns per N^1.5")
	t.Note = "uniform rows: cover (1/2, 1/2, 1/2); skewed row: cover (1, 1, 1); N^1.5 is the triangle join's AGM bound"
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	row := func(graph string, db *relation.Database, u fractional.Cover, tau float64) {
		_, inst := mustInstance(view, db)
		r, _ := db.Relation("R")
		n := float64(r.Len())
		start := time.Now()
		s := buildPrimitive(inst, u, tau)
		el := time.Since(start)
		t.Add(graph, r.Len(), fmtExp(r.Len(), tau), el, s.Stats().DictEntries, float64(el.Nanoseconds())/math.Pow(n, 1.5))
	}
	for _, edges := range sizes {
		db := workload.TriangleDB(seed, edges/12, edges/2)
		r, _ := db.Relation("R")
		for _, tau := range []float64{1, math.Sqrt(float64(r.Len()))} {
			row("uniform", db, fractional.Cover{0.5, 0.5, 0.5}, tau)
		}
	}
	row("skewed (point-ndjson)", workload.SkewedTriangleDB(42, 2000, 20000), fractional.Cover{1, 1, 1}, 8)
	return []*bench.Table{t}
}

// E15DeltaShapes compares delay-assignment shapes of equal δ-height on the
// Figure-2 decomposition: the paper's multiplicative-along-a-branch /
// additive-across-branches delay semantics means where the exponent sits
// changes space but not the height bound.
func E15DeltaShapes(sizePer, queries int, seed int64) []*bench.Table {
	db := workload.PathDB(seed, 6, sizePer, intSqrt(sizePer*3))
	view := cq.MustParse("Q[bfffbbf](v1, v2, v3, v4, v5, v6, v7) :- " +
		"R1(v1, v2), R2(v2, v3), R3(v3, v4), R4(v4, v5), R5(v5, v6), R6(v6, v7)")
	_, inst := mustInstance(view, db)
	dec := &decomp.Decomposition{
		Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
		Parent: []int{-1, 0, 1, 0},
	}
	rng := rand.New(rand.NewSource(seed + 15))
	vbs := sampleVbs(rng, inst, queries)

	shapes := []struct {
		name  string
		delta []float64
	}{
		{"uniform 0.25/0.25", []float64{0, 0.25, 0.25, 0}},
		{"top-heavy 0.5/0", []float64{0, 0.5, 0, 0}},
		{"bottom-heavy 0/0.5", []float64{0, 0, 0.5, 0}},
		{"zero (Prop 4)", []float64{0, 0, 0, 0}},
	}
	t := bench.NewTable("E15 Delay-assignment shapes (Figure 2 decomposition, equal height 0.5)",
		"shape", "height", "width", "entries", "bytes", "max delay ops")
	for _, sh := range shapes {
		s, err := decomp.Build(inst, dec, sh.delta)
		if err != nil {
			panic(err)
		}
		st := s.Stats()
		agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return s.Query(vb) })
		t.Add(sh.name, st.Height, st.Width, st.DictEntries+st.TreeNodes, st.Bytes, agg.MaxOps)
	}
	return []*bench.Table{t}
}
