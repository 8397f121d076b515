package relation

// partition.go is the hash-partitioning vocabulary behind the core
// package's sharded representations: a deterministic value→shard hash plus
// helpers that split or alias relations. A partition owns a slab of its
// own; an alias shares the source's slab capped to its length. Mutating a
// partition or an alias never disturbs the source rows.

// ShardOf deterministically maps a value to one of n shards. The hash is a
// fixed 64-bit mix (the splitmix64 finalizer), so partitions are stable
// across processes and runs — a requirement for routing access requests
// against representations loaded from snapshots.
func ShardOf(v Value, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// TupleShard returns the shard owning tuple t under the column set cols:
// the shard that every listed column's value hashes to, or -1 when the
// columns disagree (such a tuple cannot match a repeated shard variable
// and belongs to no shard) or cols is empty.
func TupleShard(t Tuple, cols []int, n int) int {
	if len(cols) == 0 {
		return -1
	}
	s := ShardOf(t[cols[0]], n)
	for _, c := range cols[1:] {
		if ShardOf(t[c], n) != s {
			return -1
		}
	}
	return s
}

// PartitionByColumns splits r into n relations named name in one pass:
// tuple t lands in shard s iff every column in cols hashes to s (see
// TupleShard). Each partition appends its rows into a slab of its own and
// is already deduplicated (a subsequence of a sorted deduplicated row set
// stays sorted and duplicate-free).
func (r *Relation) PartitionByColumns(name string, cols []int, n int) []*Relation {
	r.dedupe()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Relation, n)
	for i := range out {
		out[i] = NewRelation(name, r.arity)
		out[i].deduped.Store(true)
	}
	for i := 0; i < r.n; i++ {
		t := r.Row(i)
		if s := TupleShard(t, cols, n); s >= 0 {
			out[s].appendRow(t)
		}
	}
	return out
}

// appendRow adds t past the slab's length, for builders that produce rows
// in sorted order.
func (r *Relation) appendRow(t Tuple) {
	r.vals = append(r.vals, t...)
	r.n++
}

// FilterShard returns the single shard-s partition of r under cols (the
// s-th relation PartitionByColumns would produce), for rebuilds that only
// need the shards a change touched.
func (r *Relation) FilterShard(name string, cols []int, s, n int) *Relation {
	r.dedupe()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := NewRelation(name, r.arity)
	out.deduped.Store(true)
	for i := 0; i < r.n; i++ {
		if t := r.Row(i); TupleShard(t, cols, n) == s {
			out.appendRow(t)
		}
	}
	return out
}

// Renamed returns a copy of r under a new name sharing r's slab capped to
// its length, like Clone. Sharded builds use it to register one base
// relation under per-atom aliases.
func (r *Relation) Renamed(name string) *Relation {
	r.dedupe()
	r.mu.Lock()
	defer r.mu.Unlock()
	c := NewRelation(name, r.arity)
	c.vals = r.vals[:len(r.vals):len(r.vals)]
	c.n = r.n
	c.deduped.Store(true)
	return c
}
