package experiments

import (
	"math"
	"sort"
	"time"

	"cqrep/internal/bench"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/decomp"
	"cqrep/internal/workload"
)

// E16Parallel measures compilation parallelism: core.WithWorkers over a
// multi-bag Theorem-2 build and a dictionary-heavy Theorem-1 build. The
// structures are identical at every worker count — the tables report
// entry counts alongside wall-clock so the invariance is visible in the
// output.
func E16Parallel(sizePer int, seed int64, workerCounts []int) []*bench.Table {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	// Sort and dedupe so the speedup baseline is always the smallest
	// worker count, whatever order the -workers flag listed them in.
	workerCounts = append([]int(nil), workerCounts...)
	sort.Ints(workerCounts)
	uniq := workerCounts[:0]
	for i, w := range workerCounts {
		if i == 0 || w != workerCounts[i-1] {
			uniq = append(uniq, w)
		}
	}
	workerCounts = uniq

	// Fixture 1: the 6-relation path query under a 4-bag connex
	// decomposition — the multi-bag build whose bags compile in parallel.
	pathDB := workload.PathDB(seed, 6, sizePer, intSqrt(sizePer*3))
	pathView := cq.MustParse("Q[bfffbbf](v1, v2, v3, v4, v5, v6, v7) :- " +
		"R1(v1, v2), R2(v2, v3), R3(v3, v4), R4(v4, v5), R5(v5, v6), R6(v6, v7)")
	dec := &decomp.Decomposition{
		Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
		Parent: []int{-1, 0, 1, 0},
	}
	delta := []float64{0, 1.0 / 3, 1.0 / 6, 0}

	t1 := bench.NewTable("E16 Parallel compilation: 4-bag path decomposition",
		"workers", "build", "speedup", "entries")
	t1.Note = "entries must be identical across rows (deterministic parallel build)"
	var base time.Duration
	for _, w := range workerCounts {
		rep, err := core.Build(pathView, pathDB,
			core.WithStrategy(core.DecompositionStrategy),
			core.WithDecomposition(dec), core.WithDelta(delta),
			core.WithWorkers(w))
		if err != nil {
			panic(err)
		}
		st := rep.Stats()
		if base == 0 {
			base = st.BuildTime
		}
		t1.Add(w, st.BuildTime, float64(base)/float64(st.BuildTime), st.Entries)
	}

	// Fixture 2: a skewed triangle whose heavy-pair dictionary dominates
	// preprocessing — the per-node dictionary pool.
	triDB := workload.SkewedTriangleDB(seed+1, sizePer/6, sizePer)
	triView := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	tau := math.Max(2, math.Sqrt(float64(sizePer))/4)

	t2 := bench.NewTable("E16 Parallel compilation: triangle heavy-pair dictionary",
		"workers", "build", "speedup", "entries")
	base = 0
	for _, w := range workerCounts {
		r, err := core.Build(triView, triDB, core.WithTau(tau), core.WithWorkers(w))
		if err != nil {
			panic(err)
		}
		st := r.Stats()
		if base == 0 {
			base = st.BuildTime
		}
		t2.Add(w, st.BuildTime, float64(base)/float64(st.BuildTime), st.Entries)
	}

	return []*bench.Table{t1, t2}
}
