package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"cqrep/internal/bench"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// E18Sharding measures the partition-then-route design: hash-sharding the
// database by the first bound variable, compiling one sub-representation
// per shard in parallel, and — under Maintained — recompiling only the
// shards a change batch touches. For the E1 triangle and E6 path
// workloads it reports, per shard count, the compile time T_C and the
// wall-clock of a single-tuple maintenance rebuild, each with its speedup
// over the unsharded baseline, after verifying that the sharded
// enumeration is byte-for-byte identical to the unsharded one.
//
// The two workloads bracket the design space honestly: the path's churn
// relation R1 carries the shard variable, so one insert dirties exactly
// one shard and the rebuild cost drops toward T_C/n; the triangle's R
// also feeds a replicated alias (R(y,z) has no shard variable), so every
// shard is dirty and sharding buys rebuild time only through parallelism.
func E18Sharding(edges, queries int, seed int64, shardCounts []int) []*bench.Table {
	counts := shardCounts
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	if counts[0] != 1 {
		counts = append([]int{1}, counts...)
	}

	t := bench.NewTable("E18 Sharded compilation and maintenance (E1 triangle, E6 path)",
		"case", "shards", "entries", "compile T_C", "compile speedup", "rebuild (1 tuple)", "rebuild speedup")
	t.Note = "every sharded enumeration verified byte-identical to the unsharded representation"

	cases := []struct {
		name     string
		view     *cq.View
		db       *relation.Database
		churnRel string
		churn    func(i int) relation.Tuple
		opts     []core.Option
	}{
		{
			name:     "E1 triangle (primitive)",
			view:     cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
			db:       workload.TriangleDB(seed, edges/12, edges/2),
			churnRel: "R",
			churn:    func(i int) relation.Tuple { return relation.Tuple{relation.Value(1 << 30), relation.Value(i)} },
			opts:     []core.Option{core.WithStrategy(core.PrimitiveStrategy), core.WithTau(float64(intSqrt(edges / 2)))},
		},
		{
			name:     "E6 path (decomposition)",
			view:     workload.PathView(4),
			db:       workload.PathDB(seed, 4, edges/8, intSqrt(edges/4)),
			churnRel: "R1",
			churn:    func(i int) relation.Tuple { return relation.Tuple{relation.Value(1 << 30), relation.Value(i)} },
			opts:     []core.Option{core.WithStrategy(core.DecompositionStrategy)},
		},
	}

	for _, c := range cases {
		var base *core.Representation
		var baseCompile, baseRebuild time.Duration
		for _, shards := range counts {
			opts := append(append([]core.Option{}, c.opts...), core.WithShards(shards))
			rep, err := core.Build(c.view, c.db, opts...)
			if err != nil {
				panic(err)
			}
			if shards == 1 {
				base = rep
			} else {
				verifyIdentical(base, rep, queries, seed)
			}
			compile := rep.Stats().BuildTime

			rebuild := measureRebuild(c.view, c.db, c.churnRel, c.churn, opts)
			if shards == 1 {
				baseCompile, baseRebuild = compile, rebuild
			}
			t.Add(c.name, shards, rep.Stats().Entries, compile,
				speedup(baseCompile, compile), rebuild, speedup(baseRebuild, rebuild))
		}
	}
	return []*bench.Table{t}
}

// measureRebuild times one maintenance cycle: a Maintained over a clone of
// db (fraction 0 — rebuild on any churn) absorbs one insert and the
// wall-clock until the swapped-in snapshot is ready is the rebuild cost.
func measureRebuild(view *cq.View, db *relation.Database, rel string, churn func(i int) relation.Tuple, opts []core.Option) time.Duration {
	m, err := core.NewMaintained(view, db.Clone(), 0, opts...)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	if err := m.Insert(rel, churn(0)); err != nil {
		panic(err)
	}
	if err := m.Flush(); err != nil {
		panic(err)
	}
	return time.Since(start)
}

// speedup renders baseline/measured as "N.Nx".
func speedup(baseline, measured time.Duration) string {
	if measured <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(baseline)/float64(measured))
}

// verifyIdentical drains a sample of access requests from both
// representations and insists on byte-identical enumerations — order
// included.
func verifyIdentical(a, b *core.Representation, queries int, seed int64) {
	vbs := sampleVbs(rand.New(rand.NewSource(seed+17)), a.Instance(), queries)
	for _, vb := range vbs {
		var wantBuf, gotBuf bytes.Buffer
		wantIt, gotIt := a.Query(vb), b.Query(vb)
		for _, t := range core.Drain(wantIt) {
			wantBuf.Write(t.AppendEncode(nil))
		}
		for _, t := range core.Drain(gotIt) {
			gotBuf.Write(t.AppendEncode(nil))
		}
		if err := core.IterErr(wantIt); err != nil {
			panic(fmt.Sprintf("E18: unsharded enumeration for %v died: %v", vb, err))
		}
		if err := core.IterErr(gotIt); err != nil {
			panic(fmt.Sprintf("E18: sharded enumeration for %v died: %v", vb, err))
		}
		if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
			panic(fmt.Sprintf("E18: sharded representation enumerates differently for request %v", vb))
		}
	}
}
