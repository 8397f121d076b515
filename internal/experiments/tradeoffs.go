package experiments

import (
	"math"
	"math/rand"
	"strconv"

	"cqrep/internal/baseline"
	"cqrep/internal/bench"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/decomp"
	"cqrep/internal/fractional"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// E1Triangle reproduces Example 1/Example 5: the mutual-friend view
// V^bfb(x,y,z) = R(x,y),R(y,z),R(z,x) admits a structure with space
// O~(N^{3/2}/τ) and delay O~(τ). The sweep reports structure size and
// measured delay against the two extremes.
func E1Triangle(edges, queries int, seed int64) []*bench.Table {
	db := workload.TriangleDB(seed, edges/12, edges/2)
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	_, inst := mustInstance(view, db)
	r, _ := db.Relation("R")
	n := r.Len()
	rng := rand.New(rand.NewSource(seed + 1))

	// Access pattern of Example 1: the bound pair (x, z) are friends.
	vbs := make([]relation.Tuple, 0, queries)
	for i := 0; i < queries; i++ {
		row := r.Row(rng.Intn(n))
		vbs = append(vbs, relation.Tuple{row[0], row[1]})
	}

	u := fractional.Cover{0.5, 0.5, 0.5} // ρ* = 3/2, slack α(y) = 1
	t := bench.NewTable("E1 Triangle V^bfb tradeoff (Examples 1 and 5)",
		"tau", "dict", "nodes", "bytes", "model N^1.5/tau", "max delay ops", "max delay", "total ops")
	t.Note = "N = " + fmtInt(n) + " edges; model space is the Theorem-1 bound"

	for _, tau := range tauSweep(n) {
		s := buildPrimitive(inst, u, tau)
		st := s.Stats()
		agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return s.Query(vb) })
		t.Add(fmtExp(n, tau), st.DictEntries, st.TreeNodes, st.Bytes,
			math.Pow(float64(n), 1.5)/tau, agg.MaxOps, agg.MaxDelay, agg.TotalOps)
	}

	// Extremes: materialize-and-index versus evaluate-from-scratch.
	bt := bench.NewTable("E1 baselines", "strategy", "stored tuples", "bytes", "max delay ops", "max delay")
	mat, err := baseline.Materialize(inst)
	if err != nil {
		panic(err)
	}
	ms := mat.Stats()
	aggM := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return core.Tuples(mat.Query(vb)) })
	bt.Add("materialized", ms.Tuples, ms.Bytes, aggM.MaxOps, aggM.MaxDelay)
	dir := baseline.NewDirectEval(inst)
	aggD := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return dir.Query(vb) })
	bt.Add("direct", 0, 0, aggD.MaxOps, aggD.MaxDelay)
	return []*bench.Table{t, bt}
}

// E2AllBound reproduces Proposition 1: all-bound views answer in O(1) index
// probes with zero extra space.
func E2AllBound(edges, queries int, seed int64) []*bench.Table {
	db := workload.TriangleDB(seed, edges/12, edges/2)
	view := cq.MustParse("V[bbb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	_, inst := mustInstance(view, db)
	ab := baseline.NewAllBound(inst)
	rng := rand.New(rand.NewSource(seed + 2))
	// Half the probes are actual triangles (found by a full enumeration),
	// half random valuations; both must answer in constant probes.
	vbs := sampleVbs(rng, inst, queries/2)
	_, instF := mustInstance(cq.MustParse("V(x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	it := baseline.NewDirectEval(instF).Query(relation.Tuple{})
	for len(vbs) < queries {
		tu, ok := it.Next()
		if !ok {
			break
		}
		vbs = append(vbs, tu)
	}
	agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return core.Tuples(ab.Query(vb)) })
	t := bench.NewTable("E2 All-bound view (Proposition 1)",
		"requests", "extra space", "max delay", "hits")
	hits := 0
	for _, vb := range vbs {
		if inst.CheckAllBoundAtoms(vb) {
			hits++
		}
	}
	t.Add(agg.Requests, 0, agg.MaxDelay, hits)
	return []*bench.Table{t}
}

// E3DRep reproduces Proposition 2 / Proposition 4: full enumeration of an
// acyclic query (4-path) with linear space and constant delay via the δ≡0
// decomposition; the delay column must not grow with N.
func E3DRep(sizes []int, seed int64) []*bench.Table {
	t := bench.NewTable("E3 d-representation (Propositions 2 and 4): full enumeration of P4",
		"|D|", "entries", "bytes", "width fhw", "output", "max delay ops", "max delay")
	for _, n := range sizes {
		db := workload.PathDB(seed, 4, n/4, intSqrt(n))
		view := cq.MustParse("P(x1, x2, x3, x4, x5) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5)")
		nv, inst := mustInstance(view, db)
		res, err := decomp.SearchConnex(nv.Hypergraph(), nv.Bound)
		if err != nil {
			panic(err)
		}
		s, err := decomp.Build(inst, res.Dec, make([]float64, len(res.Dec.Bags)))
		if err != nil {
			panic(err)
		}
		st := s.Stats()
		m := bench.Measure(s.Query(relation.Tuple{}))
		t.Add(db.Size(), st.TreeNodes+st.DictEntries, st.Bytes, st.Width, m.Tuples, m.MaxOps, m.MaxDelay)
	}
	return []*bench.Table{t}
}

// E4LoomisWhitney reproduces Example 6: LW_3^{bbf} with space
// O~(|D| + |D|^{3/2}/τ); τ = |D|^{1/2} gives linear space with delay
// O~(|D|^{1/2}).
func E4LoomisWhitney(sizePer, queries int, seed int64) []*bench.Table {
	n := 3
	db := workload.LWDB(seed, n, sizePer, intSqrt(sizePer*3))
	view := workload.LWView(n)
	_, inst := mustInstance(view, db)
	total := db.Size()
	u := fractional.Cover{0.5, 0.5, 0.5} // ρ* = n/(n-1) = 3/2
	rng := rand.New(rand.NewSource(seed + 3))
	vbs := sampleVbs(rng, inst, queries)

	t := bench.NewTable("E4 Loomis-Whitney LW3^{bbf} (Example 6)",
		"tau", "dict", "nodes", "bytes", "model D^1.5/tau", "max delay ops", "total ops")
	t.Note = "|D| = " + fmtInt(total)
	for _, tau := range tauSweep(total) {
		s := buildPrimitive(inst, u, tau)
		st := s.Stats()
		agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return s.Query(vb) })
		t.Add(fmtExp(total, tau), st.DictEntries, st.TreeNodes, st.Bytes,
			math.Pow(float64(total), 1.5)/tau, agg.MaxOps, agg.TotalOps)
	}
	return []*bench.Table{t}
}

// E5StarSlack reproduces Example 7: the star S_n^{b..bf} under the all-ones
// cover has slack α = n, so space falls as N^n/τ^n rather than the
// slack-blind N^n/τ of Proposition 3.
func E5StarSlack(sizePer, queries int, seed int64) []*bench.Table {
	var tables []*bench.Table
	for _, n := range []int{2, 3} {
		db := workload.StarDB(seed, n, sizePer, sizePer/4)
		view := workload.StarView(n)
		_, inst := mustInstance(view, db)
		u := fractional.AllOnes(inst.NV.Hypergraph())
		rng := rand.New(rand.NewSource(seed + 4))
		vbs := sampleVbs(rng, inst, queries)
		N := float64(sizePer)

		t := bench.NewTable(
			"E5 Star S_"+fmtInt(n)+"^{b..bf} slack (Example 7)",
			"tau", "dict", "thm1 model N^n/tau^n", "prop3 model N^n/tau", "max delay ops")
		t.Note = "slack-aware Theorem 1 vs slack-blind Proposition 3 bounds; N = " + fmtInt(sizePer)
		// τ = 1 for n = 3 would store every heavy hub triple — the model's
		// own N³ regime — so the sweep starts at N^{1/4} there.
		taus := []float64{1, math.Pow(N, 0.25), math.Pow(N, 0.5)}
		if n >= 3 {
			taus = []float64{math.Pow(N, 0.25), math.Pow(N, 0.5), math.Pow(N, 0.75)}
		}
		for _, tau := range taus {
			s := buildPrimitive(inst, u, tau)
			st := s.Stats()
			agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return s.Query(vb) })
			t.Add(fmtExp(sizePer, tau), st.DictEntries,
				math.Pow(N, float64(n))/math.Pow(tau, float64(n)),
				math.Pow(N, float64(n))/tau,
				agg.MaxOps)
		}
		tables = append(tables, t)
	}
	return tables
}

// E6PathDecomp reproduces Example 10: on the path P_4^{bfffb}, Theorem 1
// yields space O~(|D|^2/τ) with delay τ, while Theorem 2 with the chain
// decomposition and uniform δ = log_|D| τ yields space O~(|D|^{2-δ}) with
// delay τ^{⌊n/2⌋}.
func E6PathDecomp(sizePer, queries int, seed int64) []*bench.Table {
	n := 4
	db := workload.PathDB(seed, n, sizePer, intSqrt(sizePer*2))
	view := workload.PathView(n)
	_, inst := mustInstance(view, db)
	total := db.Size()
	rng := rand.New(rand.NewSource(seed + 5))
	vbs := sampleVbs(rng, inst, queries)

	// Theorem 1: the optimal cover of the 5-vertex path has ρ* = 3
	// (endpoints force weight 1 on R1 and R4, the middle needs one more).
	// τ = 1 is omitted: with ρ* = 3 it is the |D|³ materialization regime.
	t1 := bench.NewTable("E6 Path P4^{bfffb} via Theorem 1 (Example 10)",
		"tau", "dict", "nodes", "bytes", "max delay ops")
	u := fractional.Cover{1, 1, 0, 1}
	for _, tau := range tauSweep(total)[1:] {
		s := buildPrimitive(inst, u, tau)
		st := s.Stats()
		agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return s.Query(vb) })
		t1.Add(fmtExp(total, tau), st.DictEntries, st.TreeNodes, st.Bytes, agg.MaxOps)
	}

	// Theorem 2: chain decomposition {x1,x5} → {x1,x2,x4,x5} → {x2,x3,x4}.
	dec := &decomp.Decomposition{
		Bags:   [][]int{{0, 4}, {0, 1, 3, 4}, {1, 2, 3}},
		Parent: []int{-1, 0, 1},
	}
	t2 := bench.NewTable("E6 Path P4^{bfffb} via Theorem 2 (Example 10)",
		"delta", "entries", "bytes", "width", "height", "max delay ops")
	for _, tau := range tauSweep(total)[1:] {
		x := decomp.LogBase(total, tau)
		delta := decomp.UniformDelta(dec, x)
		s, err := decomp.Build(inst, dec, delta)
		if err != nil {
			panic(err)
		}
		st := s.Stats()
		agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return s.Query(vb) })
		t2.Add(x, st.DictEntries+st.TreeNodes, st.Bytes, st.Width, st.Height, agg.MaxOps)
	}
	return []*bench.Table{t1, t2}
}

// E7SetIntersection reproduces the fast-set-intersection specialization at
// the end of Section 3.1 ([13]): S_2^{bbf}(x1,x2,z) = R(x1,z),R(x2,z) with
// space O~(N^2/τ^2) and delay O~(τ).
func E7SetIntersection(totalSize, queries int, seed int64) []*bench.Table {
	numSets := intSqrt(totalSize)
	db := workload.SetFamilyDB(seed, numSets, totalSize/2, totalSize)
	view := workload.SetIntersectionView()
	_, inst := mustInstance(view, db)
	r, _ := db.Relation("R")
	n := r.Len()
	u := fractional.Cover{1, 1} // slack α(z) = 2: the Cohen–Porat tradeoff
	rng := rand.New(rand.NewSource(seed + 6))
	vbs := make([]relation.Tuple, queries)
	for i := range vbs {
		vbs[i] = relation.Tuple{
			relation.Value(rng.Intn(numSets)),
			relation.Value(rng.Intn(numSets)),
		}
	}

	t := bench.NewTable("E7 Fast set intersection S2^{bbf} ([13], Section 3.1)",
		"tau", "dict", "bytes", "model N^2/tau^2", "max delay ops", "total ops")
	t.Note = "N = " + fmtInt(n) + " membership pairs, " + fmtInt(numSets) + " sets"
	for _, tau := range tauSweep(n)[:3] {
		s := buildPrimitive(inst, u, tau)
		st := s.Stats()
		agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return s.Query(vb) })
		t.Add(fmtExp(n, tau), st.DictEntries, st.Bytes,
			float64(n)*float64(n)/(tau*tau), agg.MaxOps, agg.TotalOps)
	}
	dir := baseline.NewDirectEval(inst)
	agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return dir.Query(vb) })
	t.Add("direct", 0, 0, "-", agg.MaxOps, agg.TotalOps)
	return []*bench.Table{t}
}

func fmtInt(n int) string { return strconv.Itoa(n) }

func intSqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	if r < 2 {
		return 2
	}
	return r
}
