package cqrep

// Benchmarks regenerating every experiment of the reproduction (one bench
// per table/figure; see DESIGN.md section 3 for the experiment index), plus
// micro-benchmarks isolating build cost and per-request query cost for the
// core structures. Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cqrep/internal/baseline"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/decomp"
	"cqrep/internal/experiments"
	"cqrep/internal/fractional"
	"cqrep/internal/join"
	"cqrep/internal/primitive"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// ---- Experiment regeneration benches (one per table/figure) ----

const (
	benchScale   = 2000
	benchQueries = 20
	benchSeed    = 42
)

func BenchmarkE1TriangleTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1Triangle(benchScale, benchQueries, benchSeed)
	}
}

func BenchmarkE2AllBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2AllBound(benchScale, benchQueries, benchSeed)
	}
}

func BenchmarkE3DRep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3DRep([]int{benchScale / 2, benchScale}, benchSeed)
	}
}

func BenchmarkE4LoomisWhitney(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E4LoomisWhitney(benchScale/4, benchQueries, benchSeed)
	}
}

func BenchmarkE5StarSlack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5StarSlack(benchScale/4, benchQueries, benchSeed)
	}
}

func BenchmarkE6PathDecomp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6PathDecomp(benchScale/4, benchQueries, benchSeed)
	}
}

func BenchmarkE7SetIntersection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7SetIntersection(benchScale, benchQueries, benchSeed)
	}
}

func BenchmarkE8RunningExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8RunningExample()
	}
}

func BenchmarkE9Optimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E9Optimizer(benchScale)
	}
}

func BenchmarkE10Connex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E10Connex()
	}
}

func BenchmarkE11Coauthor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11Coauthor(benchScale, benchQueries, benchSeed)
	}
}

func BenchmarkE12AnswerTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E12AnswerTime(benchScale/2, benchQueries, benchSeed)
	}
}

func BenchmarkE13DictionaryAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E13DictionaryAblation(benchScale, benchQueries, benchSeed)
	}
}

func BenchmarkE14BuildScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E14BuildScaling([]int{benchScale / 2, benchScale}, benchSeed)
	}
}

func BenchmarkE15DeltaShapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E15DeltaShapes(benchScale/4, benchQueries, benchSeed)
	}
}

// ---- Micro-benchmarks: structure build cost ----

func triangleFixture(b *testing.B, edges int) (*join.Instance, []relation.Tuple) {
	b.Helper()
	return triangleInstance(b, workload.TriangleDB(7, edges/12, edges/2))
}

// triangleInstance binds the mutual-friend view to db and draws 64 edges
// as requests.
func triangleInstance(b *testing.B, db *relation.Database) (*join.Instance, []relation.Tuple) {
	b.Helper()
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	nv, err := cq.Normalize(view, db)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		b.Fatal(err)
	}
	r, _ := db.Relation("R")
	rng := rand.New(rand.NewSource(3))
	vbs := make([]relation.Tuple, 64)
	for i := range vbs {
		row := r.Row(rng.Intn(r.Len()))
		vbs[i] = relation.Tuple{row[0], row[1]}
	}
	return inst, vbs
}

func benchBuildTriangle(b *testing.B, tau float64) {
	inst, _ := triangleFixture(b, 4000)
	u := fractional.Cover{0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := primitive.Build(inst, u, tau)
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

func BenchmarkBuildTriangleTau1(b *testing.B)      { benchBuildTriangle(b, 1) }
func BenchmarkBuildTriangleTauSqrtN(b *testing.B)  { benchBuildTriangle(b, math.Sqrt(4000)) }
func BenchmarkBuildTriangleTauLinear(b *testing.B) { benchBuildTriangle(b, 4000) }

// BenchmarkBuildPoint builds the point-ndjson workload's Theorem-1
// structure: the mutual-friend view over SkewedTriangleDB(42, 2000, 20000),
// the all-ones cover, τ = 8. Its dictionary comes from one walk of the
// candidate join, so allocations per build stay far below one per entry.
func BenchmarkBuildPoint(b *testing.B) {
	inst, _ := triangleInstance(b, workload.SkewedTriangleDB(42, 2000, 20000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := primitive.Build(inst, fractional.Cover{1, 1, 1}, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(s.Stats().DictEntries), "entries")
		}
	}
}

// ---- Micro-benchmarks: per-request query cost ----

func benchQueryTriangle(b *testing.B, inst *join.Instance, vbs []relation.Tuple, u fractional.Cover, tau float64) {
	s, err := primitive.Build(inst, u, tau)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tuples := 0
	for i := 0; i < b.N; i++ {
		it := s.Query(vbs[i%len(vbs)])
		for {
			_, ok := it.Next()
			if !ok {
				break
			}
			tuples++
		}
	}
	b.ReportMetric(float64(tuples)/float64(b.N), "tuples/req")
}

func BenchmarkQueryTriangleTau1(b *testing.B) {
	inst, vbs := triangleFixture(b, 4000)
	benchQueryTriangle(b, inst, vbs, fractional.Cover{0.5, 0.5, 0.5}, 1)
}

func BenchmarkQueryTriangleTauSqrt(b *testing.B) {
	inst, vbs := triangleFixture(b, 4000)
	benchQueryTriangle(b, inst, vbs, fractional.Cover{0.5, 0.5, 0.5}, math.Sqrt(4000))
}

// BenchmarkQueryTriangleSkewedTau8 is the Theorem-1 probe path of the
// point-ndjson workload at a quarter of its size: the mutual-friend view
// over a hub-heavy graph, the all-ones cover, τ = 8, one edge per request.
// Hub requests cross many light (⊥) nodes, so this is where per-node costs
// — dictionary lookups, enumerator setup, allocations — show.
func BenchmarkQueryTriangleSkewedTau8(b *testing.B) {
	inst, vbs := triangleInstance(b, workload.SkewedTriangleDB(42, 500, 5000))
	benchQueryTriangle(b, inst, vbs, fractional.Cover{1, 1, 1}, 8)
}
func BenchmarkQueryTriangleDirect(b *testing.B) {
	inst, vbs := triangleFixture(b, 4000)
	d := baseline.NewDirectEval(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := d.Query(vbs[i%len(vbs)])
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkQueryTriangleMaterialized(b *testing.B) {
	inst, vbs := triangleFixture(b, 4000)
	m, err := baseline.Materialize(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := core.Tuples(m.Query(vbs[i%len(vbs)]))
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

// ---- Micro-benchmarks: Theorem-2 structure ----

func BenchmarkDecompPathQuery(b *testing.B) {
	db := workload.PathDB(5, 6, 1500, 40)
	view := cq.MustParse("Q[bfffbbf](v1, v2, v3, v4, v5, v6, v7) :- " +
		"R1(v1, v2), R2(v2, v3), R3(v3, v4), R4(v4, v5), R5(v5, v6), R6(v6, v7)")
	nv, err := cq.Normalize(view, db)
	if err != nil {
		b.Fatal(err)
	}
	dec := &decomp.Decomposition{
		Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
		Parent: []int{-1, 0, 1, 0},
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		b.Fatal(err)
	}
	s, err := decomp.Build(inst, dec, []float64{0, 1.0 / 3, 1.0 / 6, 0})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vb := relation.Tuple{
			relation.Value(rng.Intn(40)),
			relation.Value(rng.Intn(40)),
			relation.Value(rng.Intn(40)),
		}
		it := s.Query(vb)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

// ---- Parallel compilation (core.WithWorkers) and concurrent reads ----

var workerCounts = []int{1, 2, 4, 8}

// BenchmarkParallelBuildDecomp measures multi-bag Theorem-2 compilation at
// increasing worker counts (the tentpole build-speedup measurement; on a
// multi-core machine, wall-clock drops with workers while the structure
// stays byte-identical).
func BenchmarkParallelBuildDecomp(b *testing.B) {
	db := workload.PathDB(5, 6, 1200, 36)
	view := cq.MustParse("Q[bfffbbf](v1, v2, v3, v4, v5, v6, v7) :- " +
		"R1(v1, v2), R2(v2, v3), R3(v3, v4), R4(v4, v5), R5(v5, v6), R6(v6, v7)")
	dec := &decomp.Decomposition{
		Bags:   [][]int{{0, 4, 5}, {0, 1, 3, 4}, {1, 2, 3}, {5, 6}},
		Parent: []int{-1, 0, 1, 0},
	}
	delta := []float64{0, 1.0 / 3, 1.0 / 6, 0}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.Build(view, db,
					core.WithStrategy(core.DecompositionStrategy),
					core.WithDecomposition(dec), core.WithDelta(delta),
					core.WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(rep.Stats().Entries), "entries")
				}
			}
		})
	}
}

// BenchmarkParallelBuildPrimitive measures heavy-pair dictionary
// construction at increasing worker counts on a skewed triangle.
func BenchmarkParallelBuildPrimitive(b *testing.B) {
	db := workload.SkewedTriangleDB(7, 300, 3000)
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	tau := math.Sqrt(3000) / 4
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.Build(view, db, core.WithTau(tau), core.WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(rep.Stats().Entries), "entries")
				}
			}
		})
	}
}

// BenchmarkConcurrentQuery measures raw Theorem-1 structure query
// throughput under RunParallel — the lock-free read path that concurrent
// httpserve handlers and Maintained rely on.
func BenchmarkConcurrentQuery(b *testing.B) {
	inst, vbs := triangleFixture(b, 4000)
	s, err := primitive.Build(inst, fractional.Cover{0.5, 0.5, 0.5}, math.Sqrt(4000))
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			it := s.Query(vbs[i%len(vbs)])
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			i++
		}
	})
}

// ---- Micro-benchmarks: join engine ----

func BenchmarkWCOJTriangleFullEnum(b *testing.B) {
	for _, edges := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			db := workload.TriangleDB(9, edges/4, edges/2)
			view := cq.MustParse("V(x, y, z) :- R(x, y), R(y, z), R(z, x)")
			nv, err := cq.Normalize(view, db)
			if err != nil {
				b.Fatal(err)
			}
			inst, err := join.NewInstance(nv)
			if err != nil {
				b.Fatal(err)
			}
			d := baseline.NewDirectEval(inst)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := d.Query(relation.Tuple{})
				n := 0
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					n++
				}
				if i == 0 {
					b.ReportMetric(float64(n), "triangles")
				}
			}
		})
	}
}
