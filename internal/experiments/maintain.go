package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/bench"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// E20Maintain measures dynamic maintenance (DESIGN.md §9): sustained
// update throughput and concurrent-reader query latency of a Maintained
// view, with structure-aware delta application against the full-recompile
// fallback it replaces. Two churn regimes, both where the delta
// capability applies: a bucket-dominated materialized fan-out view and an
// all-bound index view. The writer applies a seeded churn script in
// synchronous batches — every batch is fully compiled before the next
// starts, so updates/sec prices complete maintenance, not just buffering —
// while `readers` goroutines hammer queries and record latencies. Both
// modes end in byte-identical states (verified), so the throughput ratio
// is pure maintenance cost.
//
// The two regimes bracket the capability matrix honestly: materialized
// buckets skip the output recomputation entirely, so delta application
// wins by the output/batch ratio; the all-bound backend stores nothing
// beyond the base indexes, so its delta is an index rewrap whose cost is
// bounded by the shell rebuild and the gap stays within noise.
func E20Maintain(edges, queries int, seed int64, readers int) []*bench.Table {
	if readers < 1 {
		readers = 4
	}
	t := bench.NewTable("E20 Delta maintenance vs full recompile (sustained churn, concurrent readers)",
		"case", "mode", "changes", "batch", "updates/s", "rebuilds", "delta applies", "query p50", "query p99")
	t.Note = "final states verified byte-identical between modes; every batch fully compiled before the next (synchronous cadence)"

	for _, c := range maintainCases(edges, seed) {
		ops, err := workload.ChurnScript(seed+5, c.db(), []string{"S"}, c.domain, maintainOps(edges))
		if err != nil {
			panic(fmt.Sprintf("E20: churn script: %v", err))
		}
		var final [][]byte
		for _, mode := range []maintainMode{
			{name: "delta", opts: nil},
			{name: "full recompile", opts: []core.Option{core.WithDeltaApply(false)}},
		} {
			r := runMaintain(c, mode, ops, readers, seed)
			t.Add(c.name, mode.name, len(ops), maintainBatch,
				fmt.Sprintf("%.0f", r.updatesPerSec), r.rebuilds, r.deltaApplies,
				bench.Percentile(r.lat, 0.50), bench.Percentile(r.lat, 0.99))
			if final == nil {
				final = r.state
			} else if !equalStates(final, r.state) {
				panic(fmt.Sprintf("E20 %s: delta-maintained state diverges from full recompile", c.name))
			}
		}
	}
	return []*bench.Table{t}
}

// maintainBatch is the synchronous flush cadence: the core staleness
// floor, so each flush compiles exactly one batch-worth of changes.
const maintainBatch = 32

// maintainOps sizes the churn script off the data scale.
func maintainOps(edges int) int {
	n := edges / 4
	if n < maintainBatch*8 {
		n = maintainBatch * 8
	}
	return n
}

// maintainCase is one churn regime of E20.
type maintainCase struct {
	name   string
	view   *cq.View
	opts   []core.Option
	domain int
	keys   int // bound-key space the readers draw from
	db     func() *relation.Database
}

// maintainMode is delta-on or the recompile fallback.
type maintainMode struct {
	name string
	opts []core.Option
}

type maintainResult struct {
	updatesPerSec float64
	rebuilds      int
	deltaApplies  int
	lat           []time.Duration
	state         [][]byte
}

// maintainCases builds the two delta-capable regimes, both churning the
// single relation S. The materialized case joins the churned S against a
// static fan-out T, so a full recompile re-joins and re-materializes the
// whole (amplified) output while the delta path touches only the changed
// tuples' derivations — the bucket-dominated regime the capability
// exists for. The all-bound case probes existence under the same churn.
func maintainCases(edges int, seed int64) []maintainCase {
	const keys = 16 // shared x/p domain of the churned relation
	const fan = 32  // static T fan-out per join key
	nS := edges / 4
	if nS < keys {
		nS = keys
	}
	joinDB := func() *relation.Database {
		rng := rand.New(rand.NewSource(seed + 11))
		db := relation.NewDatabase()
		s := relation.NewRelation("S", 2)
		for i := 0; i < nS; i++ {
			s.MustInsert(relation.Value(rng.Intn(keys)), relation.Value(rng.Intn(keys)))
		}
		tr := relation.NewRelation("T", 2)
		for p := 0; p < keys; p++ {
			for y := 0; y < fan; y++ {
				tr.MustInsert(relation.Value(p), relation.Value(y))
			}
		}
		db.Add(s)
		db.Add(tr)
		return db
	}
	flatDB := func() *relation.Database {
		rng := rand.New(rand.NewSource(seed + 11))
		db := relation.NewDatabase()
		s := relation.NewRelation("S", 2)
		for i := 0; i < nS; i++ {
			s.MustInsert(relation.Value(rng.Intn(keys)), relation.Value(rng.Intn(keys)))
		}
		db.Add(s)
		return db
	}
	return []maintainCase{
		{
			name:   "materialized join buckets",
			view:   cq.MustParse("W[bf](x, y) :- S(x, p), T(p, y)"),
			opts:   []core.Option{core.WithStrategy(core.MaterializedStrategy)},
			domain: keys,
			keys:   keys,
			db:     joinDB,
		},
		{
			name:   "all-bound index",
			view:   cq.MustParse("B[bb](x, y) :- S(x, y)"),
			opts:   []core.Option{core.WithStrategy(core.AllBoundStrategy)},
			domain: keys,
			keys:   keys,
			db:     flatDB,
		},
	}
}

// runMaintain drives one (case, mode) cell: the writer pushes the churn
// script through Maintained in synchronous maintainBatch-sized batches
// while readers query concurrently. The returned state is the full
// enumeration (or existence bitmap) per key, for cross-mode identity.
func runMaintain(c maintainCase, mode maintainMode, ops []workload.ChurnOp, readers int, seed int64) maintainResult {
	opts := append(append([]core.Option{}, c.opts...), mode.opts...)
	// A budget the script never crosses: flushes below decide when to
	// compile, so every mode sees the identical batch boundaries.
	m, err := core.NewMaintained(c.view, c.db(), 1e9, opts...)
	if err != nil {
		panic(fmt.Sprintf("E20 %s/%s: %v", c.name, mode.name, err))
	}

	var done atomic.Bool
	var mu sync.Mutex
	var lat []time.Duration
	var wg, ready sync.WaitGroup
	bound := len(m.Rep().BoundNames())
	boolean := len(m.Rep().FreeNames()) == 0
	for w := 0; w < readers; w++ {
		wg.Add(1)
		ready.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*101))
			var local []time.Duration
			first := true
			for !done.Load() {
				vb := make(relation.Tuple, bound)
				for i := range vb {
					vb[i] = relation.Value(rng.Intn(c.keys))
				}
				t0 := time.Now()
				if boolean {
					if _, err := m.Exists(vb); err != nil {
						panic(err)
					}
				} else {
					it, err := m.Query(vb)
					if err != nil {
						panic(err)
					}
					core.Drain(it)
					if err := core.IterErr(it); err != nil {
						panic(err)
					}
				}
				local = append(local, time.Since(t0))
				if first {
					// The writer's clock starts only once every reader
					// has a query behind it; otherwise short cells race
					// goroutine startup and measure an unloaded writer.
					first = false
					ready.Done()
				}
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}(w)
	}
	ready.Wait()

	start := time.Now()
	for i, op := range ops {
		if op.Del {
			err = m.Delete(op.Rel, op.Tuple)
		} else {
			err = m.Insert(op.Rel, op.Tuple)
		}
		if err != nil {
			panic(fmt.Sprintf("E20 %s/%s change %d: %v", c.name, mode.name, i, err))
		}
		if (i+1)%maintainBatch == 0 {
			if err := m.Flush(); err != nil {
				panic(fmt.Sprintf("E20 %s/%s flush: %v", c.name, mode.name, err))
			}
		}
	}
	if err := m.Flush(); err != nil {
		panic(fmt.Sprintf("E20 %s/%s final flush: %v", c.name, mode.name, err))
	}
	wall := time.Since(start)
	done.Store(true)
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

	return maintainResult{
		updatesPerSec: float64(len(ops)) / wall.Seconds(),
		rebuilds:      m.Rebuilds(),
		deltaApplies:  m.DeltaApplies(),
		lat:           lat,
		state:         maintainState(m, c.keys),
	}
}

// maintainState encodes the maintained view's final answers per key so
// two runs can be compared byte-for-byte regardless of mode.
func maintainState(m *core.Maintained, keys int) [][]byte {
	bound := len(m.Rep().BoundNames())
	out := make([][]byte, 0, keys*keys)
	if bound == 1 {
		for k := 0; k < keys; k++ {
			it, err := m.Query(relation.Tuple{relation.Value(k)})
			if err != nil {
				panic(err)
			}
			var buf []byte
			for _, t := range core.Drain(it) {
				for _, v := range t {
					buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
				}
			}
			if err := core.IterErr(it); err != nil {
				panic(err)
			}
			out = append(out, buf)
		}
		return out
	}
	// All-bound: the existence bitmap over the key × key grid (values
	// outside the key grid are exercised by the difftests; the bitmap is
	// an identity check between modes, not a completeness proof).
	buf := make([]byte, 0, keys*keys)
	for x := 0; x < keys; x++ {
		for y := 0; y < keys; y++ {
			ok, err := m.Exists(relation.Tuple{relation.Value(x), relation.Value(y)})
			if err != nil {
				panic(err)
			}
			if ok {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return append(out, buf)
}

func equalStates(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}
