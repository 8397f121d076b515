package experiments

import (
	"math/rand"
	"sort"

	"cqrep/internal/bench"
	"cqrep/internal/core"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// E11Coauthor reproduces the graph-analytics application of the
// introduction: the co-author view V^bf(x,y) = R(x,p),R(y,p) served
// compressed versus materializing the whole co-author graph.
func E11Coauthor(entries, queries int, seed int64) []*bench.Table {
	db := workload.CoauthorDB(seed, entries/8, entries/4, entries)
	view := workload.CoauthorView()
	rng := newRand(seed + 8)

	// Compressed: the Theorem-2 structure with constant-delay bags.
	rep, err := core.Build(view, db)
	if err != nil {
		panic(err)
	}
	// Materialized co-author graph.
	mat, err := core.Build(view, db, core.WithStrategy(core.MaterializedStrategy))
	if err != nil {
		panic(err)
	}
	// From scratch.
	dir, err := core.Build(view, db, core.WithStrategy(core.DirectStrategy))
	if err != nil {
		panic(err)
	}

	// Query the busiest authors (the hard case for from-scratch).
	r, _ := db.Relation("R")
	counts := make(map[relation.Value]int)
	for i := 0; i < r.Len(); i++ {
		counts[r.Row(i)[0]]++
	}
	type ac struct {
		a relation.Value
		c int
	}
	var authors []ac
	for a, c := range counts {
		authors = append(authors, ac{a, c})
	}
	sort.Slice(authors, func(i, j int) bool { return authors[i].c > authors[j].c })
	var vbs []relation.Tuple
	for i := 0; i < queries && i < len(authors); i++ {
		vbs = append(vbs, relation.Tuple{authors[i].a})
	}
	for len(vbs) < queries {
		vbs = append(vbs, relation.Tuple{relation.Value(rng.Intn(entries / 8))})
	}

	t := bench.NewTable("E11 Co-author view V^bf (introduction application)",
		"strategy", "entries", "bytes", "max delay", "total time")
	for _, c := range []struct {
		name string
		rep  *core.Representation
	}{{"compressed (Thm 2)", rep}, {"materialized graph", mat}, {"from scratch", dir}} {
		agg := measureRequests(vbs, func(vb relation.Tuple) bench.Iterator { return c.rep.Query(vb) })
		st := c.rep.Stats()
		t.Add(c.name, st.Entries, st.Bytes, agg.MaxDelay, agg.TotalTime)
	}
	t.Note = "|R| = " + fmtInt(r.Len()) + " author-paper pairs; queries hit the busiest authors"
	return []*bench.Table{t}
}
