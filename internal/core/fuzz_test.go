package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"slices"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// FuzzReadRepresentation hardens the snapshot decoder against corrupt,
// truncated, and adversarial inputs: whatever bytes arrive,
// ReadRepresentation must return a typed error or a representation that
// actually serves queries — never panic, and never size an allocation
// from an attacker-controlled count (the Decoder validates every count
// against the bytes remaining; this target proves it end to end).
//
// The corpus seeds with freshly encoded frames across every persistable
// strategy (single-backend and sharded), so mutations explore the
// neighborhood of the one supported format version.
func FuzzReadRepresentation(f *testing.F) {
	// Current-version frames across the persistable strategy menu, sharded
	// included.
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	db := workload.TriangleDB(5, 12, 40)
	for _, opts := range [][]Option{
		{WithStrategy(PrimitiveStrategy), WithTau(2)},
		{WithStrategy(DecompositionStrategy)},
		{WithStrategy(MaterializedStrategy)},
		{WithStrategy(DirectStrategy)},
		{WithStrategy(PrimitiveStrategy), WithTau(2), WithShards(2)},
	} {
		rep, err := Build(view, db, opts...)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := rep.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The committed v4 fixture, and a copy whose dictionary repeats an
	// entry: decoding must reject that rather than let the later entry win.
	raw, err := os.ReadFile("testdata/triangle_v4.cqs")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(repeatLastDictEntry(f, raw))
	// A materialized bucket that repeats and reorders its answers.
	f.Add(disorderedBucket(f))
	// A sharded snapshot whose first nested shard frame fails its checksum,
	// and sharded snapshots whose shard card is cut short, lists too few
	// entry counts, or orders the output positions other than by a
	// permutation.
	f.Add(nestedCRCCorrupt(f))
	for _, raw := range corruptCards(f) {
		f.Add(raw)
	}
	// Degenerate non-snapshots.
	f.Add([]byte{})
	f.Add([]byte("CQREPS"))
	f.Add([]byte("not a snapshot at all........."))

	// One scratch directory per fuzz process for the mmap path's files.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		// The format frames its payload with a length field; cap the input
		// so the fuzzer spends its budget on structure, not on I/O volume.
		if len(data) > 1<<20 {
			return
		}
		// Decoding angles per input: the bytes as a whole frame, and the
		// bytes as a *payload* wrapped in a correctly-checksummed v1, v2,
		// v3 and current-version frame. The current-version wrap matters
		// most: without it the CRC-32 gate rejects nearly every mutation
		// before the payload decoders (view, database, per-strategy
		// structures) see a byte. The older wraps must always fail typed:
		// this build reads none of them.
		tryDecode(t, dir, data)
		for _, v := range []uint16{1, 2, 3} {
			if _, err := ReadRepresentation(bytes.NewReader(framePayload(v, stripFrame(data)))); !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("v%d frame: err = %v, want ErrSnapshotVersion", v, err)
			}
		}
		tryDecode(t, dir, framePayload(snapshotVersion, stripFrame(data)))
	})
}

// stripFrame unwraps a whole snapshot frame back to its payload so seeds
// (which are valid frames) explore payload space; non-frames pass through
// as raw payload bytes.
func stripFrame(data []byte) []byte {
	const hdr = len(snapshotMagic) + 2 + 8
	if len(data) >= hdr+4 && string(data[:len(snapshotMagic)]) == snapshotMagic {
		return data[hdr : len(data)-4]
	}
	return data
}

// framePayload wraps payload bytes in a syntactically valid snapshot
// frame: right magic, the given version, true length, matching CRC.
func framePayload(version uint16, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	buf.WriteByte(byte(version >> 8))
	buf.WriteByte(byte(version))
	var lenb [8]byte
	binary.BigEndian.PutUint64(lenb[:], uint64(len(payload)))
	buf.Write(lenb[:])
	buf.Write(payload)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	buf.Write(sum[:])
	return buf.Bytes()
}

// tryDecode runs one decode attempt on each load path — eager, and mmap
// with the composite and every shard materialized — requires both to
// agree on accepting or rejecting the bytes and, on claimed success,
// proves the representation is actually servable and re-encodable. The
// route card reader checks less than a decode, so it must accept what
// the decoders accept, and agree with them on it.
func tryDecode(t *testing.T, dir string, data []byte) {
	rep, err := ReadRepresentation(bytes.NewReader(data))
	if merr := mmapDecode(t, dir, data); (err == nil) != (merr == nil) {
		t.Fatalf("load paths disagree: eager err = %v, mmap err = %v", err, merr)
	}
	card, cerr := ReadRouteCard(data)
	if err != nil {
		return
	}
	if cerr != nil {
		t.Fatalf("ReadRouteCard rejects a snapshot that decodes: %v", cerr)
	}
	entries := 0
	for _, n := range card.Entries {
		entries += n
	}
	if card.Shards != rep.ShardCount() || entries != rep.Stats().Entries || !slices.Equal(card.EnumOrder, rep.EnumOrder()) {
		t.Fatalf("route card %+v disagrees with the decode", card)
	}
	vb := make(relation.Tuple, len(rep.BoundNames()))
	it := rep.Query(vb)
	for i := 0; i < 64; i++ {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	rep.Exists(vb)
	// WriteTo over a decoded representation is the reload path of a
	// serving process; it must survive too.
	if _, err := rep.WriteTo(&bytes.Buffer{}); err != nil {
		t.Fatalf("decoded representation does not re-encode: %v", err)
	}
}

// mmapDecode loads data through the mmap path, from a fresh file in dir,
// and forces every lazy frame to decode, returning the first error either
// step reports.
func mmapDecode(t *testing.T, dir string, data []byte) error {
	f, err := os.CreateTemp(dir, "*.cqs")
	if err != nil {
		t.Fatal(err)
	}
	// Unlinking leaves a live mapping intact.
	defer os.Remove(f.Name())
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenRepresentationMmap(f.Name())
	if err != nil {
		return err
	}
	if err := m.ensure(); err != nil {
		return err
	}
	if sb, ok := m.be.(*shardedBackend); ok {
		for _, sub := range sb.subs {
			if err := sub.ensure(); err != nil {
				return err
			}
		}
	}
	return nil
}
