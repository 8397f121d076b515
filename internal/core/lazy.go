package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"cqrep/internal/relation"
)

// lazy.go implements the mmap-backed snapshot load path: OpenRepresentationMmap
// maps a snapshot file and returns in O(file-open) time, deferring all
// decoding — base relations, indexes, backend structures — to the first
// access. For sharded snapshots the laziness is per shard: the
// composite materializes only its routing metadata, and each shard's
// nested frame (a zero-copy subslice of the mapping) decodes independently
// on first touch, so a bound-key access request pays for exactly one
// shard. A node can therefore host thousands of snapshot-backed views and
// pay decode cost only for the ones that receive traffic.
//
// Every decoder copies what it keeps (strings, tuples, rows), so no
// materialized structure aliases the mapping. Once a lazy frame has fully
// decoded it drops its reference to the mapping; when all frames of a file
// have materialized the mapping itself is unmapped by a finalizer.

// mmapRef owns one mapped (or, on platforms without mmap, read) snapshot
// file. Lazy frames hold it to keep the mapping alive while their payload
// subslices are still undecoded; a finalizer unmaps it once the last
// holder drops away.
type mmapRef struct {
	data   []byte
	mapped bool // true when data came from syscall.Mmap and needs munmap
}

// lazySnapshot is the deferred-decode state of a Representation loaded by
// OpenRepresentationMmap: the undecoded payload (a subslice of the
// mapping), its expected checksum, and the one-shot decode guard.
// Field order packs the sub-word fields (sum rides in once's alignment
// tail), keeping the struct at 72 bytes with no padding waste.
type lazySnapshot struct {
	once    sync.Once
	sum     uint32
	err     error
	payload []byte
	ref     *mmapRef // keeps the mapping alive until materialized
	// claim is what the composite says of a shard frame, checked once it
	// decodes; nil for outer frames.
	claim *shardClaim
}

// ensure materializes a lazily-loaded representation, decoding the mapped
// payload into r exactly once. It is a no-op for eagerly built or loaded
// representations, and safe for concurrent callers: the first caller
// decodes, everyone else blocks until the verdict — success or a sticky
// error — is in.
func (r *Representation) ensure() error {
	l := r.lazy
	if l == nil {
		return nil
	}
	l.once.Do(func() {
		l.err = l.materialize(r)
		// Drop the payload and mapping reference either way: a failed
		// decode is sticky, so the bytes are never needed again.
		l.payload = nil
		l.ref = nil
	})
	return l.err
}

// materialize decodes the lazy payload into dst. The payload is
// checksum-verified in full first — for a sharded composite that covers the
// base relations in its prefix and reads every nested frame once, but
// decodes none of them: each shard frame is verified against its own CRC
// and decoded when that shard first materializes.
func (l *lazySnapshot) materialize(dst *Representation) error {
	if crc32.ChecksumIEEE(l.payload) != l.sum {
		return fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	d := relation.NewDecoder(l.payload)
	pre, err := decodeSnapshotPrefix(d, true)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	shell, err := shellFromPrefix(pre)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	// orig and view may have been decoded eagerly at open (the registry
	// needs names before first touch); leave them in place so concurrent
	// readers of those fields never observe a rewrite.
	if dst.orig == nil {
		dst.orig, dst.view = shell.orig, shell.view
	}
	dst.sh = shell.sh
	dst.strategy = pre.strategy
	dst.stats = shell.stats

	if pre.shards > 1 {
		if err := decodeLazySharded(d, dst, pre, l.ref); err != nil {
			return err
		}
	} else {
		spec, ok := backendSpecs[pre.strategy]
		if !ok {
			return fmt.Errorf("%w: unknown strategy %d", ErrBadSnapshot, int(pre.strategy))
		}
		be, err := spec.decode(d, dst)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		dst.be = be
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after structure payload", ErrBadSnapshot, d.Remaining())
	}
	if l.claim != nil {
		if err := l.claim.check(dst); err != nil {
			return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
	}
	return nil
}

// decodeLazySharded installs the sharded composite backend with one lazy
// sub-representation per nested frame: routing metadata (partitioner,
// shard-key check and card) materializes now, the frames themselves —
// zero-copy subslices of the mapping — decode independently on first
// touch, each checked then against the card's claim.
func decodeLazySharded(d *relation.Decoder, r *Representation, pre *snapshotPrefix, ref *mmapRef) error {
	p, card, frames, err := readShardedPayload(d, r.view, pre.shards)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	subs := make([]*Representation, pre.shards)
	for i, frame := range frames {
		sub, err := newLazyFromFrame(frame, ref, card.claim(pre.strategy, i))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		subs[i] = sub
	}
	r.be = &shardedBackend{parts: p, subs: subs}
	r.stats.Shards = p.n
	// Structure footprints (Entries, Bytes, τ, α, width, height) live in
	// the undecoded shard frames; an mmap-loaded composite reports them as
	// zero rather than forcing every shard to materialize.
	return nil
}

// newLazyFromFrame wraps one complete snapshot frame (header, payload,
// checksum — a subslice of the mapping) as an undecoded representation.
// Only the frame header is validated now; payload checksum and content
// wait for first touch.
func newLazyFromFrame(frame []byte, ref *mmapRef, claim *shardClaim) (*Representation, error) {
	payload, sum, err := splitFrame(frame)
	if err != nil {
		return nil, err
	}
	if len(frame) != snapshotHeaderLen+len(payload)+4 {
		return nil, fmt.Errorf("%w: %d trailing bytes after frame", ErrBadSnapshot, len(frame)-snapshotHeaderLen-len(payload)-4)
	}
	return &Representation{lazy: &lazySnapshot{payload: payload, sum: sum, ref: ref, claim: claim}}, nil
}

// splitFrame validates a snapshot frame header in place and returns the
// payload subslice and its expected checksum. Nothing is copied and no
// checksum is computed.
func splitFrame(frame []byte) (payload []byte, sum uint32, err error) {
	if len(frame) < snapshotHeaderLen+4 {
		return nil, 0, fmt.Errorf("%w: short header", ErrBadSnapshot)
	}
	if string(frame[:len(snapshotMagic)]) != snapshotMagic {
		return nil, 0, fmt.Errorf("%w: bad magic bytes", ErrBadSnapshot)
	}
	if version := binary.BigEndian.Uint16(frame[len(snapshotMagic):]); version != snapshotVersion {
		return nil, 0, fmt.Errorf("%w: snapshot has format version %d, this build reads version %d", ErrSnapshotVersion, version, snapshotVersion)
	}
	payloadLen := binary.BigEndian.Uint64(frame[len(snapshotMagic)+2:])
	if payloadLen > uint64(len(frame)-snapshotHeaderLen-4) {
		return nil, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadSnapshot, len(frame)-snapshotHeaderLen-4, payloadLen)
	}
	payload = frame[snapshotHeaderLen : snapshotHeaderLen+int(payloadLen)]
	sum = binary.BigEndian.Uint32(frame[snapshotHeaderLen+int(payloadLen):])
	return payload, sum, nil
}

// OpenRepresentationMmap maps the snapshot file at path and returns a
// representation whose decoding is deferred to first access: the call
// itself validates only the frame header and the (cheap) stored view, so
// it is O(file-open) regardless of snapshot size. The error contract
// matches ReadRepresentation, except that payload-level failures — a
// checksum mismatch, a corrupt structure — surface at first touch instead:
// Query returns an iterator whose IterErr wraps ErrBadSnapshot, Bind
// returns the error directly, and Exists reports false.
//
// The returned representation answers byte-for-byte identically to an
// eagerly loaded one. For sharded snapshots, each shard's nested frame
// decodes independently when an access request first routes to it.
func OpenRepresentationMmap(path string) (*Representation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	ref, err := mmapFile(f)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrBadSnapshot, path, err)
	}
	payload, sum, err := splitFrame(ref.data)
	if err != nil {
		return nil, err
	}
	if extra := len(ref.data) - snapshotHeaderLen - len(payload) - 4; extra != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot frame", ErrBadSnapshot, extra)
	}
	// Decode the stored view eagerly: registries key on view names, and the
	// view is a few strings at the head of the payload — far cheaper than
	// the relations and structures behind it.
	view, err := decodeView(relation.NewDecoder(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return &Representation{
		orig: view,
		view: view.ExtendToFull(),
		lazy: &lazySnapshot{payload: payload, sum: sum, ref: ref},
	}, nil
}

// errIterator is the empty stream carrying a terminal error — how the
// no-error Query surface reports a lazy representation that failed to
// materialize (see IterErr).
type errIterator struct{ err error }

func (it errIterator) Next() (relation.Tuple, bool) { return nil, false }
func (it errIterator) Err() error                   { return it.err }
