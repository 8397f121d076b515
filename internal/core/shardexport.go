package core

import (
	"fmt"
	"io"
)

// shardexport.go is the shard-shipping surface of the sharded composite
// backend: a distributed serving tier (internal/coord) needs each shard of
// a compiled representation as its own self-contained snapshot file so a
// worker can join by fetching exactly the shards it is assigned — the
// join-by-snapshot protocol of DESIGN.md §6. Each shard's
// sub-representation already serializes as a complete snapshot frame (the
// sharded payload nests one per shard), so export is a plain WriteTo of
// the sub-representation; a worker loads the file with the ordinary eager
// or mmap decoder and serves it like any other view.

// ShardCount reports how many shards the representation's backend
// partitions into: 1 for every unsharded backend, the WithShards count for
// the sharded composite. An mmap-loaded representation materializes first;
// one that fails to decode reports 1.
func (r *Representation) ShardCount() int {
	if err := r.ensure(); err != nil {
		return 1
	}
	if sb, ok := r.be.(*shardedBackend); ok {
		return sb.parts.n
	}
	return 1
}

// ShardKeyIndex reports the position of the shard key inside a bound
// valuation, or -1 when requests cannot be routed by a bound value — the
// representation is unsharded, the shard variable is free (every request
// merge-enumerates all shards), or the backend failed to decode. A router
// holding a valuation vb with ShardKeyIndex() == k >= 0 finds the owning
// shard with relation.ShardOf(vb[k], ShardCount()) — the same hash the
// partitioner used, so routing and partitioning can never disagree.
func (r *Representation) ShardKeyIndex() int {
	if err := r.ensure(); err != nil {
		return -1
	}
	if sb, ok := r.be.(*shardedBackend); ok {
		return sb.parts.keyIdx
	}
	return -1
}

// WriteShard serializes shard i as a self-contained snapshot frame that
// loads through ReadRepresentation (or the mmap opener) like any other
// snapshot. For an unsharded representation only shard 0 exists and the
// frame is the whole representation. The exported frame carries the
// per-shard view (identical head and access pattern; body relations may be
// aliased where one base relation needs different partitions per atom), so
// a loaded shard answers the same access requests as the composite and
// enumerates its slice of the answers in the composite's order.
func (r *Representation) WriteShard(i int, w io.Writer) (int64, error) {
	if err := r.ensure(); err != nil {
		return 0, err
	}
	sb, ok := r.be.(*shardedBackend)
	if !ok {
		if i != 0 {
			return 0, fmt.Errorf("core: unsharded representation has only shard 0, not %d", i)
		}
		return r.WriteTo(w)
	}
	if i < 0 || i >= len(sb.subs) {
		return 0, fmt.Errorf("core: shard %d out of range [0,%d)", i, len(sb.subs))
	}
	return sb.subs[i].WriteTo(w)
}

// Ensure forces a lazily-loaded (mmap) representation to materialize and
// reports the decode verdict; it is a no-op nil for eagerly built or
// loaded representations. Readiness probes use it to distinguish "mapped"
// from "decodable": an mmap-opened snapshot defers payload verification to
// first touch, and Ensure is that first touch.
func (r *Representation) Ensure() error { return r.ensure() }
