package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// snapshot.go implements the compile-once / serve-many split: a compiled
// Representation serializes to a self-describing binary snapshot that a
// later process loads without paying the compression cost T_C again. The
// wire format (specified in DESIGN.md, "Snapshot wire format") is
//
//	magic "CQREPS" | version uint16 BE | payload length uint64 BE |
//	payload | CRC-32 (IEEE) of payload, uint32 BE
//
// The payload stores the adorned view, the base relations it references,
// the strategy, the shard count, and the backend's expensive precomputed
// state (trees, dictionaries, materialized buckets — or, for a sharded
// representation, one complete nested frame per shard). Derived state —
// normalized views, sorted base indexes, estimators, bag projections,
// traversal tables, the shard partitioner — is reconstructed
// deterministically at load time (the base indexes only for backends
// whose queries read them), so a loaded representation enumerates
// byte-for-byte identically to the freshly compiled one.
//
// Version history: version 1 carried a single backend and no shard count;
// version 2 adds the shard-count field and the sharded composite payload;
// version 3 stores the Theorem-1 heavy-pair dictionary valuation-major
// (front-coded valuations, per valuation its node ids as deltas, and one
// packed bitmap of the bits) where version 2 wrote one fixed-width
// (node, valuation) key per entry; version 4 puts a shard card (the
// composite's enumeration order and each shard's entry count) ahead of
// the nested frames of a sharded payload, so a router reads a sharded
// snapshot without decoding it (ReadRouteCard). This build reads version
// 4 only: a frame of an earlier version fails with ErrSnapshotVersion.

const (
	snapshotMagic   = "CQREPS"
	snapshotVersion = 4
	// snapshotHeaderLen is magic + version + payload length.
	snapshotHeaderLen = len(snapshotMagic) + 2 + 8
)

// frameBuffer is the size of the buffer a snapshot frame is written
// through.
const frameBuffer = 64 << 10

// WriteTo serializes the representation as one snapshot frame. It
// implements io.WriterTo; Save is the file-path form. The payload streams
// to w through one small buffer, its length counted first for the header,
// so the frame is never held in memory whole: each frame's payload,
// nested shard frames included, is encoded once to count it and once to
// write it.
func (r *Representation) WriteTo(w io.Writer) (int64, error) {
	size, err := r.payloadLen()
	if err != nil {
		return 0, err
	}
	return r.writeFrame(w, size)
}

// writeFrame writes the representation's frame, whose payload payloadLen
// counted as size bytes, to w and reports the bytes w accepted. The
// payload reaches w, and its checksum, in frameBuffer-sized writes.
func (r *Representation) writeFrame(w io.Writer, size int64) (int64, error) {
	cw := &countWriter{w: w}
	var hdr [snapshotHeaderLen]byte
	copy(hdr[:], snapshotMagic)
	binary.BigEndian.PutUint16(hdr[len(snapshotMagic):], snapshotVersion)
	binary.BigEndian.PutUint64(hdr[len(snapshotMagic)+2:], uint64(size))
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	sw := &crcWriter{w: cw}
	bw := bufio.NewWriterSize(sw, frameBuffer)
	e := relation.NewEncoder(bw)
	r.encodePayload(e)
	if err := e.Err(); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	if e.Len() != size {
		return cw.n, fmt.Errorf("cqrep: snapshot payload is %d bytes, its counting pass said %d", e.Len(), size)
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], sw.sum)
	_, err := cw.Write(sum[:])
	return cw.n, err
}

// payloadLen is the byte length of the representation's snapshot
// payload, counted without writing it and kept: a representation never
// changes once built or decoded, so neither do its snapshot bytes, and a
// sharded composite's counting and writing passes read each shard's
// count from here. An mmap-loaded representation materializes first.
func (r *Representation) payloadLen() (int64, error) {
	if err := r.ensure(); err != nil {
		return 0, err
	}
	if n := r.payloadSize.Load(); n > 0 {
		return n, nil
	}
	e := relation.NewCounter()
	r.encodePayload(e)
	if err := e.Err(); err != nil {
		return 0, err
	}
	r.payloadSize.Store(e.Len())
	return e.Len(), nil
}

// frameLen is the byte length of a snapshot frame around a payload of
// the given length.
func frameLen(payload int64) int64 { return int64(snapshotHeaderLen) + payload + 4 }

// encodePayload writes the snapshot payload: the view, the base relations
// it references, the strategy, the build time, the shard count and the
// backend's structures.
func (r *Representation) encodePayload(e *relation.Encoder) {
	encodeView(e, r.orig)
	e.Database(r.referencedDB())
	e.Uint(uint64(r.strategy))
	e.Int(int64(r.stats.BuildTime))
	e.Uint(uint64(r.stats.Shards))
	r.be.EncodeTo(e)
}

// countWriter counts the bytes w accepted.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// crcWriter keeps the CRC-32 (IEEE) of the bytes it passes on to w.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

// Save writes the representation's snapshot to path via a temporary file
// in the same directory plus an atomic rename, so readers never observe a
// half-written snapshot and a failed Save leaves no partial file behind.
// The file ends up with plain os.Create permissions (0666 before umask) —
// readable for the compile-once/serve-many handoff under the default
// umask, private under a restrictive one.
func (r *Representation) Save(path string) error {
	f, tmp, err := createSibling(path)
	if err != nil {
		return err
	}
	if _, err := r.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cqrep: saving snapshot %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// createSibling opens a fresh temporary file next to path with the mode a
// plain os.Create would give the destination (0666 restricted by the
// process umask — os.CreateTemp would pin 0600 and chmod would override
// the umask, both wrong for an artifact meant to replace path).
func createSibling(path string) (*os.File, string, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	for i := 0; i < 10000; i++ {
		tmp := filepath.Join(dir, fmt.Sprintf(".%s.tmp%d", base, rand.Uint64()))
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		return f, tmp, err
	}
	return nil, "", fmt.Errorf("cqrep: saving snapshot %s: cannot create a temporary sibling", path)
}

// referencedDB returns the base relations the view's body references — the
// part of the build database a snapshot must carry. Unreferenced relations
// in the original database are deliberately not stored.
func (r *Representation) referencedDB() *relation.Database {
	out := relation.NewDatabase()
	for _, a := range r.view.Body {
		if rel, err := r.sh.db.Relation(a.Relation); err == nil {
			out.Add(rel)
		}
	}
	return out
}

// ReadRepresentation loads a snapshot previously written by WriteTo.
// The stream must hold exactly one frame: one that does not start with the
// snapshot magic, fails its checksum, is truncated, carries an
// inconsistent payload, or goes on past the frame fails with an error
// wrapping ErrBadSnapshot; a version this build does not understand
// fails with ErrSnapshotVersion. On success the loaded representation
// answers queries byte-for-byte identically to the one that was saved;
// Stats().BuildTime reports the original compression time T_C, not the
// (much smaller) load time.
func ReadRepresentation(rd io.Reader) (*Representation, error) {
	var hdr [snapshotHeaderLen]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %w", ErrBadSnapshot, err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic bytes", ErrBadSnapshot)
	}
	if version := binary.BigEndian.Uint16(hdr[len(snapshotMagic):]); version != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot has format version %d, this build reads version %d", ErrSnapshotVersion, version, snapshotVersion)
	}
	payloadLen := binary.BigEndian.Uint64(hdr[len(snapshotMagic)+2:])
	payload, err := readPayload(rd, payloadLen)
	if err != nil {
		return nil, err
	}
	var sum [4]byte
	if _, err := io.ReadFull(rd, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %w", ErrBadSnapshot, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.BigEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	// A snapshot is exactly one frame, as the mmap path also requires.
	var extra [1]byte
	if n, _ := io.ReadFull(rd, extra[:]); n != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after snapshot frame", ErrBadSnapshot)
	}

	r, err := decodeRepresentation(relation.NewDecoder(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return r, nil
}

// readPayload reads a frame's n payload bytes. When the reader knows how
// many bytes it has left (a regular file, a bytes.Reader), a length
// beyond them fails before anything is allocated, and the payload is
// read into one buffer of exactly n bytes. Any other reader is copied
// through a growing buffer, so a corrupt length fails with a truncation
// error instead of an allocation of that size.
func readPayload(rd io.Reader, n uint64) ([]byte, error) {
	if left, ok := remainingLen(rd); ok {
		if n > uint64(left) {
			return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadSnapshot, left, n)
		}
		payload := make([]byte, n)
		if got, err := io.ReadFull(rd, payload); err != nil {
			return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadSnapshot, got, n)
		}
		return payload, nil
	}
	var buf bytes.Buffer
	if got, err := io.CopyN(&buf, rd, int64(n)); err != nil || uint64(got) != n {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadSnapshot, buf.Len(), n)
	}
	return buf.Bytes(), nil
}

// remainingLen reports how many bytes rd has left to read, when it can
// tell without reading them.
func remainingLen(rd io.Reader) (int64, bool) {
	switch r := rd.(type) {
	case *bytes.Reader:
		return int64(r.Len()), true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil || off > fi.Size() {
			return 0, false
		}
		return fi.Size() - off, true
	}
	return 0, false
}

// snapshotPrefix is the cheap leading part of every snapshot payload —
// everything before the backend's structure encoding.
type snapshotPrefix struct {
	view      *cq.View
	db        *relation.Database
	strategy  Strategy
	buildTime time.Duration
	shards    int
}

// decodeSnapshotPrefix reads the payload prefix shared by the eager and
// mmap load paths and the route card reader: view, base relations,
// strategy, build time, and the shard count. With decodeDB false the base
// relations are stepped over unread (relation.Decoder.SkipDatabase) and
// the prefix holds no database.
func decodeSnapshotPrefix(d *relation.Decoder, decodeDB bool) (*snapshotPrefix, error) {
	view, err := decodeView(d)
	if err != nil {
		return nil, err
	}
	var db *relation.Database
	if decodeDB {
		db, err = d.Database()
	} else {
		err = d.SkipDatabase()
	}
	if err != nil {
		return nil, err
	}
	pre := &snapshotPrefix{view: view, db: db, strategy: Strategy(d.Uint()), buildTime: time.Duration(d.Int()), shards: 1}
	// Bounded like every other count in the codec: a sharded payload
	// carries one length-prefixed nested frame (at least a header and
	// checksum) per shard, so a larger count is corruption and must fail
	// before it can size an allocation.
	if n := d.Uint(); n > 1 {
		if n > uint64(d.Remaining()/(snapshotHeaderLen+5)) {
			return nil, fmt.Errorf("shard count %d exceeds remaining payload (%d bytes)", n, d.Remaining())
		}
		pre.shards = int(n)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return pre, nil
}

// shellFromPrefix re-runs the deterministic front of Build (extend and
// normalize; see newShell) over the stored view and relations and
// installs the prefix metadata. The returned representation has no backend
// yet.
func shellFromPrefix(pre *snapshotPrefix) (*Representation, error) {
	r, err := newShell(pre.view, pre.db)
	if err != nil {
		return nil, err
	}
	r.strategy = pre.strategy
	r.stats.Strategy = pre.strategy
	r.stats.BuildTime = pre.buildTime
	r.stats.Shards = 1
	return r, nil
}

// decodeRepresentation rebuilds a representation from a verified payload:
// it re-runs the deterministic front of Build over the stored view and
// relations, then installs the decoded expensive structures — dispatched
// through the backend registry — instead of recompiling them. The base
// indexes and active domains are built only by the decoders whose queries
// read them; a materialized snapshot, unsharded or sharded, never builds
// them, so its load is decoding the relations and buckets (DESIGN.md,
// "Reconstruction and compatibility policy").
func decodeRepresentation(d *relation.Decoder) (*Representation, error) {
	pre, err := decodeSnapshotPrefix(d, true)
	if err != nil {
		return nil, err
	}
	r, err := shellFromPrefix(pre)
	if err != nil {
		return nil, err
	}
	if pre.shards > 1 {
		if err := decodeShardedBackend(d, r, pre.strategy, pre.shards); err != nil {
			return nil, err
		}
	} else {
		spec, ok := backendSpecs[pre.strategy]
		if !ok {
			return nil, fmt.Errorf("unknown strategy %d", int(pre.strategy))
		}
		be, err := spec.decode(d, r)
		if err != nil {
			return nil, err
		}
		r.be = be
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after structure payload", d.Remaining())
	}
	return r, nil
}

// decodeShardedBackend reads the sharded composite payload written by
// shardedBackend.EncodeTo (readShardedPayload) and decodes each nested
// frame in place, from its subslice of the outer payload, with the checks
// ReadRepresentation makes of a whole stream; each shard must then be
// what the composite claims of it (shardClaim).
func decodeShardedBackend(d *relation.Decoder, r *Representation, strategy Strategy, shards int) error {
	p, card, frames, err := readShardedPayload(d, r.view, shards)
	if err != nil {
		return err
	}
	subs := make([]*Representation, shards)
	for i, frame := range frames {
		sub, err := decodeFrame(frame)
		if err == nil {
			err = card.claim(strategy, i).check(sub)
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		subs[i] = sub
	}
	buildTime := r.stats.BuildTime
	finishSharded(r, p, subs)
	r.stats.BuildTime = buildTime
	return nil
}

// verifyFrame checks one complete snapshot frame held in memory — header,
// a payload that ends where the frame does, checksum — and returns its
// payload, a subslice of frame.
func verifyFrame(frame []byte) ([]byte, error) {
	payload, sum, err := splitFrame(frame)
	if err != nil {
		return nil, err
	}
	if extra := len(frame) - snapshotHeaderLen - len(payload) - 4; extra != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot frame", ErrBadSnapshot, extra)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	return payload, nil
}

// decodeFrame decodes one complete snapshot frame held in memory, which
// must end where the frame does. Nothing is copied: decoders copy what
// they keep.
func decodeFrame(frame []byte) (*Representation, error) {
	payload, err := verifyFrame(frame)
	if err != nil {
		return nil, err
	}
	r, err := decodeRepresentation(relation.NewDecoder(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return r, nil
}

// encodeView writes an adorned view: name, head, access pattern, and body
// atoms with their variable/constant terms.
func encodeView(e *relation.Encoder, v *cq.View) {
	e.String(v.Name)
	e.Uint(uint64(len(v.Head)))
	for _, h := range v.Head {
		e.String(h)
	}
	e.String(v.Pattern.String())
	e.Uint(uint64(len(v.Body)))
	for _, a := range v.Body {
		e.String(a.Relation)
		e.Uint(uint64(len(a.Terms)))
		for _, t := range a.Terms {
			e.Bool(t.IsConst)
			if t.IsConst {
				e.Value(t.Const)
			} else {
				e.String(t.Var)
			}
		}
	}
}

// decodeView reads a view written by encodeView and re-validates it.
func decodeView(d *relation.Decoder) (*cq.View, error) {
	v := &cq.View{Name: d.String()}
	nHead := d.Count(1)
	for i := 0; i < nHead; i++ {
		v.Head = append(v.Head, d.String())
	}
	pattern, err := cq.ParseAccessPattern(d.String())
	if err != nil {
		return nil, err
	}
	v.Pattern = pattern
	nBody := d.Count(2)
	for i := 0; i < nBody; i++ {
		a := cq.Atom{Relation: d.String()}
		nTerms := d.Count(1)
		for j := 0; j < nTerms; j++ {
			if d.Bool() {
				a.Terms = append(a.Terms, cq.C(d.Value()))
			} else {
				a.Terms = append(a.Terms, cq.V(d.String()))
			}
		}
		v.Body = append(v.Body, a)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}
