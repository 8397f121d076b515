package core

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// shard.go implements the sharded composite backend — the partition-then-
// route design: the database is hash-partitioned by the values of one
// shard variable, one sub-representation is compiled per shard (in
// parallel, on the WithWorkers pool), and access requests either route
// directly to the owning shard (shard variable bound) or merge-enumerate
// across all shards in global lexicographic order (shard variable free).
// Both paths answer byte-for-byte identically to the unsharded
// representation; the win is that compilation and — through
// Representation.rebuildFor — maintenance touch only a 1/n slice of the
// data per shard.

// partitioner describes how a full view's database hash-partitions into n
// shards keyed by one head variable. It is derived deterministically from
// (view, n), so a snapshot only needs to store n to reconstruct it.
type partitioner struct {
	n      int
	keyVar string
	keyIdx int // index of the key in the bound valuation; -1 when free
	// view is the per-shard view: identical to the full view except that a
	// base relation needing different partitions for different atoms (the
	// shard variable at different columns) is pulled in under per-atom
	// aliases.
	view  *cq.View
	specs []relSpec
}

// relSpec derives one relation of every per-shard database.
type relSpec struct {
	src  string // relation name in the original database
	name string // name in the per-shard view and database
	cols []int  // columns carrying the shard variable; empty = replicated
}

// shardKeyVar picks the shard variable of a full view: the first bound
// head variable — access requests then route to the owning shard — or,
// for views with no bound variables, the first head variable (free, so
// enumerated answers pin their shard and merge disjointly). keyIdx is the
// key's index in the bound valuation, -1 when the key is free.
func shardKeyVar(full *cq.View) (name string, keyIdx int) {
	for i, a := range full.Pattern {
		if a == cq.Bound {
			// The first bound head variable is, by construction, index 0 of
			// the bound valuation.
			return full.Head[i], 0
		}
	}
	return full.Head[0], -1
}

// newPartitioner derives the shard plan for a full view: the shard
// variable, the per-atom partition columns, and the per-shard view with
// aliases where one base relation needs different partitions per atom.
func newPartitioner(full *cq.View, n int) *partitioner {
	key, keyIdx := shardKeyVar(full)
	p := &partitioner{n: n, keyVar: key, keyIdx: keyIdx}

	colsByAtom := make([][]int, len(full.Body))
	atomsBySrc := make(map[string][]int)
	for j, a := range full.Body {
		for pos, t := range a.Terms {
			if !t.IsConst && t.Var == key {
				colsByAtom[j] = append(colsByAtom[j], pos)
			}
		}
		atomsBySrc[a.Relation] = append(atomsBySrc[a.Relation], j)
	}

	// A relation whose atoms all agree on the partition columns keeps its
	// name (one shared partition); one pulled in with differing columns —
	// e.g. R(x,y), R(y,z), R(z,x) sharded on x — gets a per-atom alias so
	// each alias can hold its own partition of the same base rows.
	aliased := make(map[string]bool)
	for src, atoms := range atomsBySrc {
		for _, j := range atoms[1:] {
			if !equalInts(colsByAtom[j], colsByAtom[atoms[0]]) {
				aliased[src] = true
				break
			}
		}
	}

	shardView := &cq.View{Name: full.Name, Head: full.Head, Pattern: full.Pattern, Body: make([]cq.Atom, len(full.Body))}
	seen := make(map[string]bool)
	for j, a := range full.Body {
		name := a.Relation
		if aliased[a.Relation] {
			name = a.Relation + "@" + strconv.Itoa(j)
		}
		shardView.Body[j] = cq.Atom{Relation: name, Terms: a.Terms}
		if !seen[name] {
			seen[name] = true
			p.specs = append(p.specs, relSpec{src: a.Relation, name: name, cols: colsByAtom[j]})
		}
	}
	p.view = shardView
	return p
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// subDatabases derives all n per-shard databases in one pass per spec.
// Replicated relations (no shard variable in the atom) are shared across
// every shard — they are read-only from here on — while partitioned ones
// split by TupleShard.
func (p *partitioner) subDatabases(db *relation.Database) ([]*relation.Database, error) {
	out := make([]*relation.Database, p.n)
	for i := range out {
		out[i] = relation.NewDatabase()
	}
	for _, spec := range p.specs {
		src, err := db.Relation(spec.src)
		if err != nil {
			return nil, err
		}
		if len(spec.cols) == 0 {
			rel := src
			if spec.name != spec.src {
				rel = src.Renamed(spec.name)
			}
			for _, d := range out {
				d.Add(rel)
			}
			continue
		}
		parts := src.PartitionByColumns(spec.name, spec.cols, p.n)
		for i, d := range out {
			d.Add(parts[i])
		}
	}
	return out, nil
}

// subDatabase derives the single shard-s database, for dirty-shard
// rebuilds that leave the other shards untouched.
func (p *partitioner) subDatabase(db *relation.Database, s int) (*relation.Database, error) {
	out := relation.NewDatabase()
	for _, spec := range p.specs {
		src, err := db.Relation(spec.src)
		if err != nil {
			return nil, err
		}
		switch {
		case len(spec.cols) > 0:
			out.Add(src.FilterShard(spec.name, spec.cols, s, p.n))
		case spec.name != spec.src:
			out.Add(src.Renamed(spec.name))
		default:
			out.Add(src)
		}
	}
	return out, nil
}

// dirtyShards maps a buffered change batch to the shards whose partition
// it touches. all reports that a replicated relation changed, which
// dirties every shard.
func (p *partitioner) dirtyShards(batch []change) (dirty map[int]bool, all bool) {
	dirty = make(map[int]bool)
	for _, c := range batch {
		for _, spec := range p.specs {
			if spec.src != c.rel {
				continue
			}
			if len(spec.cols) == 0 {
				return nil, true
			}
			if s := relation.TupleShard(c.tuple, spec.cols, p.n); s >= 0 {
				dirty[s] = true
			}
		}
	}
	return dirty, false
}

// shardedBackend is the composite backend: n sub-representations over the
// hash-partitioned database, with bound-key routing and lexicographic
// merge enumeration.
type shardedBackend struct {
	parts *partitioner
	subs  []*Representation
}

// owner returns the sub-representation owning the valuation's shard-key
// value, or nil when the shard key is free (merge enumeration) or the
// valuation is too short to carry it (any shard rejects it identically).
func (b *shardedBackend) owner(vb relation.Tuple) *Representation {
	if b.parts.keyIdx < 0 {
		return nil
	}
	if b.parts.keyIdx >= len(vb) {
		return b.subs[0]
	}
	return b.subs[relation.ShardOf(vb[b.parts.keyIdx], len(b.subs))]
}

// Query is the tuple view over queryBlocks: a primitive, decomposition or
// direct shard's own tuples when the key is bound (Tuples unwraps its
// adapter), else one slab per lent block or merged run.
func (b *shardedBackend) Query(vb relation.Tuple) Iterator {
	return Tuples(b.queryBlocks(context.Background(), vb))
}

// queryBlocks is QueryBlocks on the composite: the owning shard's blocks
// when the key is bound, else the merge (MergeBlocks) of every shard's in
// the backend's global enumeration order, which the disjoint hash
// partition makes byte-for-byte identical to the unsharded enumeration —
// native, so a materialized composite lends runs of its buckets.
func (b *shardedBackend) queryBlocks(ctx context.Context, vb relation.Tuple) BlockIterator {
	if sub := b.owner(vb); sub != nil {
		return sub.QueryBlocks(ctx, vb)
	}
	its := make([]BlockIterator, len(b.subs))
	for i, sub := range b.subs {
		its[i] = sub.QueryBlocks(ctx, vb)
	}
	return MergeBlocks(b.EnumOrder(), its)
}

// EnumOrder reports the shared sub-backend order (every shard compiles
// the same structure shape over its partition, so the orders agree). It
// goes through the sub-representation — not its backend field directly —
// so a lazily-loaded shard materializes first.
func (b *shardedBackend) EnumOrder() []int { return b.subs[0].EnumOrder() }

// Exists asks the owning shard, or any shard when the key is free.
func (b *shardedBackend) Exists(vb relation.Tuple) bool {
	if sub := b.owner(vb); sub != nil {
		return sub.Exists(vb)
	}
	for _, sub := range b.subs {
		if sub.Exists(vb) {
			return true
		}
	}
	return false
}

// buildSharded compiles the partition-then-route composite over db.
func buildSharded(view *cq.View, db *relation.Database, cfg *config) (*Representation, error) {
	r, err := newShell(view, db)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p := newPartitioner(r.view, cfg.shards)
	dbs, err := p.subDatabases(db)
	if err != nil {
		return nil, err
	}
	subs, err := compileShards(p, dbs, nil, cfg)
	if err != nil {
		return nil, err
	}
	finishSharded(r, p, subs)
	r.stats.BuildTime = time.Since(start)
	return r, nil
}

// compileShards builds one sub-representation per shard database in
// parallel, bounded by cfg.workers. A non-nil entry in reuse is kept
// as-is — dirty-shard rebuilds pass the clean shards there and only
// populate dbs for the dirty ones.
func compileShards(p *partitioner, dbs []*relation.Database, reuse []*Representation, cfg *config) ([]*Representation, error) {
	inner := *cfg
	inner.shards = 1
	subs := make([]*Representation, p.n)
	errs := make([]error, p.n)
	sem := make(chan struct{}, cfg.workers)
	var wg sync.WaitGroup
	for i := 0; i < p.n; i++ {
		if reuse != nil && reuse[i] != nil {
			subs[i] = reuse[i]
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := cfg.ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			ic := inner
			subs[i], errs[i] = buildSingle(p.view, dbs[i], &ic)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return subs, nil
}

// finishSharded installs the composite backend and aggregates the stats:
// entry and byte footprints sum across shards; the per-shard structure
// parameters (τ, α, width, height), which vary with each shard's data,
// report the first shard's values as representative.
func finishSharded(r *Representation, p *partitioner, subs []*Representation) {
	r.be = &shardedBackend{parts: p, subs: subs}
	r.strategy = subs[0].strategy
	r.stats.Strategy = subs[0].strategy
	r.stats.Shards = p.n
	r.stats.Entries, r.stats.Bytes = 0, 0
	for _, s := range subs {
		r.stats.Entries += s.stats.Entries
		r.stats.Bytes += s.stats.Bytes
	}
	r.stats.Tau = subs[0].stats.Tau
	r.stats.Alpha = subs[0].stats.Alpha
	r.stats.Width = subs[0].stats.Width
	r.stats.Height = subs[0].stats.Height
}

// rebuildFor compiles the replacement representation over db (a clone
// with batch already applied), for Maintained's build-aside cycle, and
// reports how many backends absorbed the batch through the delta path.
// Routing, cheapest first:
//
//   - an unsharded backend with the deltaApplier capability applies the
//     batch's output delta on a copy-on-write clone (see delta.go);
//   - a sharded representation recompiles only the shards whose partition
//     the batch touched, reusing every clean shard's compiled structure —
//     and each dirty shard's own backend gets the capability probe first,
//     with the batch mapped through the shard's relation specs;
//   - everything else — incapable backends, deltas out of reach, batches
//     touching a replicated relation — is the full build, exactly as
//     before.
func (r *Representation) rebuildFor(db *relation.Database, batch []change, opts []Option) (*Representation, int, error) {
	cfg, err := newBuildConfig(nil, opts)
	if err != nil {
		return nil, 0, err
	}
	sb, sharded := r.be.(*shardedBackend)
	if !sharded {
		if rep, ok := r.tryDelta(db, batch, cfg); ok {
			return rep, 1, nil
		}
		rep, err := Build(r.orig, db, opts...)
		return rep, 0, err
	}
	dirty, all := sb.parts.dirtyShards(batch)
	if all {
		rep, err := Build(r.orig, db, opts...)
		return rep, 0, err
	}
	shell, err := newShell(r.orig, db)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	p := sb.parts
	dbs := make([]*relation.Database, p.n)
	reuse := make([]*Representation, p.n)
	deltas := 0
	for i, sub := range sb.subs {
		if !dirty[i] {
			reuse[i] = sub
			continue
		}
		subDB, err := p.subDatabase(db, i)
		if err != nil {
			return nil, 0, err
		}
		if rep, ok := sub.tryDelta(subDB, p.shardBatch(batch, i), cfg); ok {
			reuse[i] = rep
			deltas++
			continue
		}
		dbs[i] = subDB
	}
	subs, err := compileShards(p, dbs, reuse, cfg)
	if err != nil {
		return nil, 0, err
	}
	finishSharded(shell, p, subs)
	shell.stats.BuildTime = time.Since(start)
	return shell, deltas, nil
}

// shardBatch maps a change batch onto shard s's relation namespace: a
// change to base relation R becomes one change per spec derived from R
// whose partition owns the tuple, under the spec's (possibly aliased)
// name. Replicated specs never appear here — a batch touching one took
// the full-build path already. Order is preserved, so per-shard net
// semantics match the global batch.
func (p *partitioner) shardBatch(batch []change, s int) []change {
	var out []change
	for _, c := range batch {
		for _, spec := range p.specs {
			if spec.src != c.rel || len(spec.cols) == 0 {
				continue
			}
			if relation.TupleShard(c.tuple, spec.cols, p.n) == s {
				out = append(out, change{seq: c.seq, rel: spec.name, tuple: c.tuple, delete: c.delete})
			}
		}
	}
	return out
}

// EncodeTo writes the composite's snapshot payload: the shard-key variable
// (a cheap consistency check at decode time), the shard card, then each
// shard's own complete snapshot frame, length-prefixed, in shard order.
// Reusing the frame format per shard means a shard's snapshot is
// self-contained and the existing single-backend codec needs no changes.
// Each frame streams through e after its length, which the shard counts
// once and keeps.
func (b *shardedBackend) EncodeTo(e *relation.Encoder) {
	e.String(b.parts.keyVar)
	card := shardCard{enumOrder: b.EnumOrder(), entries: make([]int, len(b.subs))}
	for i, sub := range b.subs {
		card.entries[i] = sub.Stats().Entries
	}
	card.encodeTo(e)
	for _, sub := range b.subs {
		size, err := sub.payloadLen()
		if err != nil {
			e.Fail(fmt.Errorf("core: encoding shard frame: %w", err))
			return
		}
		e.Uint(uint64(frameLen(size)))
		e.Nested(frameLen(size), func(w io.Writer) (int64, error) { return sub.writeFrame(w, size) })
	}
}
