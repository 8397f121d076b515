package core

import (
	"fmt"
	"io"
	"math"
	"slices"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// shardexport.go is the shard-shipping surface of the sharded composite
// backend: a distributed serving tier (internal/coord) needs each shard of
// a compiled representation as its own self-contained snapshot file so a
// worker can join by fetching exactly the shards it is assigned — the
// join-by-snapshot protocol of DESIGN.md §6. Each shard's
// sub-representation already serializes as a complete snapshot frame (the
// sharded payload nests one per shard), so WriteShard is a plain WriteTo
// of the sub-representation, and a router that holds only the snapshot's
// bytes finds the same frames through ReadRouteCard without decoding
// anything; a worker loads the file with the ordinary eager or mmap
// decoder and serves it like any other view.

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

// shardCard is the head of a sharded payload, ahead of its nested frames
// (snapshot version 4): what a router needs that otherwise only decoding
// the shards would tell — the composite's enumeration order and each
// shard's entry count.
type shardCard struct {
	enumOrder []int // nil: head order
	entries   []int // one per shard
}

// encodeTo writes the card: the order nil-aware (0 for nil, else its
// length plus one, then each position), then the entry counts, counted.
func (c shardCard) encodeTo(e *relation.Encoder) {
	if c.enumOrder == nil {
		e.Uint(0)
	} else {
		e.Uint(uint64(len(c.enumOrder)) + 1)
		for _, p := range c.enumOrder {
			e.Uint(uint64(p))
		}
	}
	e.Uint(uint64(len(c.entries)))
	for _, n := range c.entries {
		e.Uint(uint64(n))
	}
}

// decodeShardCard reads the card of a composite of the given shard count
// over a full view with mu free variables. An order that is not a
// permutation of the mu output positions, or an entry list of another
// length than the shard count, is corrupt.
func decodeShardCard(d *relation.Decoder, shards, mu int) (shardCard, error) {
	var c shardCard
	if n := d.Count(1); n > 0 {
		if n-1 != mu {
			return c, fmt.Errorf("shard card orders %d positions, the view has %d free variables", n-1, mu)
		}
		seen := make([]bool, mu)
		c.enumOrder = make([]int, mu)
		for i := range c.enumOrder {
			p := d.Uint()
			if d.Err() != nil {
				return c, d.Err()
			}
			if p >= uint64(mu) || seen[p] {
				return c, fmt.Errorf("shard card order is not a permutation of [0,%d)", mu)
			}
			c.enumOrder[i], seen[p] = int(p), true
		}
	}
	if n := d.Count(1); d.Err() == nil && n != shards {
		return c, fmt.Errorf("shard card lists %d entry counts for %d shards", n, shards)
	}
	c.entries = make([]int, shards)
	for i := range c.entries {
		n := d.Uint()
		if n > math.MaxInt {
			return c, fmt.Errorf("shard card: shard %d claims %d entries", i, n)
		}
		c.entries[i] = int(n)
	}
	return c, d.Err()
}

// claim is what the card and the composite's strategy say of shard i.
func (c shardCard) claim(strategy Strategy, i int) *shardClaim {
	return &shardClaim{strategy: strategy, enumOrder: c.enumOrder, entries: c.entries[i]}
}

// shardClaim is what a sharded payload says of one of its shards: a shard
// frame that decodes to another strategy, order or entry count is corrupt.
type shardClaim struct {
	strategy  Strategy
	enumOrder []int
	entries   int
}

// check holds a decoded shard to the claim. No encoder nests a composite
// in a composite, so a shard frame that is itself sharded is corrupt too.
func (c *shardClaim) check(sub *Representation) error {
	if _, nested := sub.be.(*shardedBackend); nested {
		return fmt.Errorf("shard frame is itself sharded")
	}
	if sub.strategy != c.strategy {
		return fmt.Errorf("shard has strategy %v, composite claims %v", sub.strategy, c.strategy)
	}
	if got := sub.be.EnumOrder(); (got == nil) != (c.enumOrder == nil) || !slices.Equal(got, c.enumOrder) {
		return fmt.Errorf("shard enumerates in order %v, the card says %v", got, c.enumOrder)
	}
	if sub.stats.Entries != c.entries {
		return fmt.Errorf("shard holds %d entries, the card says %d", sub.stats.Entries, c.entries)
	}
	return nil
}

// readShardedPayload reads a sharded composite payload as
// shardedBackend.EncodeTo wrote it, up to the end of its nested frames:
// the shard-key variable, checked against the partitioner rederived from
// the full view and shard count, the card, and one length-prefixed frame
// per shard, returned as subslices of the payload, unverified.
func readShardedPayload(d *relation.Decoder, full *cq.View, shards int) (*partitioner, shardCard, [][]byte, error) {
	p := newPartitioner(full, shards)
	keyVar := d.String()
	if err := d.Err(); err != nil {
		return nil, shardCard{}, nil, err
	}
	if keyVar != p.keyVar {
		return nil, shardCard{}, nil, fmt.Errorf("sharded snapshot keyed by %q, view shards by %q", keyVar, p.keyVar)
	}
	card, err := decodeShardCard(d, shards, len(full.FreeVars()))
	if err != nil {
		return nil, shardCard{}, nil, err
	}
	frames := make([][]byte, shards)
	for i := range frames {
		n := d.Count(1)
		frames[i] = d.Raw(n)
		if err := d.Err(); err != nil {
			return nil, shardCard{}, nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return p, card, frames, nil
}

// RouteCard is what a router needs of a snapshot, read without decoding
// it (ReadRouteCard): names, adornment, shard plan, enumeration order and
// size, and where each shard's frame lies in the snapshot's bytes.
type RouteCard struct {
	// View is the full adorned view; Bound and Free name its bound and
	// free variables in valuation and output order.
	View        *cq.View
	Bound, Free []string
	Strategy    Strategy
	Shards      int
	// KeyIndex is the shard key's position in a bound valuation, or -1
	// when requests cannot be routed by one (see ShardKeyIndex).
	KeyIndex int
	// EnumOrder is the enumeration order (see Representation.EnumOrder).
	EnumOrder []int
	// Entries counts each shard's structure entries.
	Entries []int
	// Frames[i] is the byte range of shard i's complete snapshot frame:
	// the bytes WriteShard(i) writes for the decoded representation.
	Frames []FrameRange
}

// FrameRange is the byte range [Off, Off+Len) of a frame in a snapshot.
type FrameRange struct{ Off, Len int }

// ReadRouteCard reads the route card of the snapshot whose bytes are raw.
// For a sharded snapshot it checks the outer checksum and every nested
// frame's, reads the view and the shard card, and steps over the base
// relations: it decodes no relation row and no backend. A nested frame
// whose checksum holds but whose contents do not decode is not caught
// here; loading the shard file rejects it. An unsharded snapshot is its
// own only shard frame and is decoded in full for its card. Errors wrap
// ErrBadSnapshot or ErrSnapshotVersion, as ReadRepresentation's do.
func ReadRouteCard(raw []byte) (*RouteCard, error) {
	payload, err := verifyFrame(raw)
	if err != nil {
		return nil, err
	}
	d := relation.NewDecoder(payload)
	pre, err := decodeSnapshotPrefix(d, false)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if pre.shards == 1 {
		r, err := decodeFrame(raw)
		if err != nil {
			return nil, err
		}
		return &RouteCard{
			View: r.view, Bound: r.BoundNames(), Free: r.FreeNames(),
			Strategy: r.strategy, Shards: 1, KeyIndex: -1,
			EnumOrder: r.EnumOrder(), Entries: []int{r.stats.Entries}, Frames: []FrameRange{{0, len(raw)}},
		}, nil
	}
	if _, ok := backendSpecs[pre.strategy]; !ok {
		return nil, fmt.Errorf("%w: unknown strategy %d", ErrBadSnapshot, int(pre.strategy))
	}
	full := pre.view.ExtendToFull()
	p, card, frames, err := readShardedPayload(d, full, pre.shards)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes after the shard frames", d.Remaining())
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	rc := &RouteCard{
		View: full, Bound: nonNil(full.BoundVars()), Free: nonNil(full.FreeVars()),
		Strategy: pre.strategy, Shards: pre.shards, KeyIndex: p.keyIdx,
		EnumOrder: card.enumOrder, Entries: card.entries,
	}
	for i, frame := range frames {
		if _, err := verifyFrame(frame); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		// frame is a subslice of raw, so their capacities differ by its
		// offset.
		rc.Frames = append(rc.Frames, FrameRange{Off: cap(raw) - cap(frame), Len: len(frame)})
	}
	return rc, nil
}

// nonNil is names, or an empty list for none, as NormalizedView's name
// lists are.
func nonNil(names []string) []string {
	if names == nil {
		return []string{}
	}
	return names
}
