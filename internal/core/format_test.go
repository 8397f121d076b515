package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// TestSnapshotFormatFixture loads testdata/triangle_v4.cqs, a Theorem-1
// snapshot of the mutual-friend view over workload.SkewedTriangleDB(11, 20,
// 90) at τ = 2 with the valuation-major heavy-pair dictionary. It must
// read (format version 4), write back byte for byte, and answer every
// request exactly like a fresh compile of the same inputs. Version 4
// changed only the sharded payload, so this unsharded fixture's payload
// is triangle_v3.cqs's.
func TestSnapshotFormatFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/triangle_v4.cqs")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint16(raw[len(snapshotMagic):]); v != 4 || snapshotVersion != 4 {
		t.Fatalf("fixture is version %d, this build writes %d; both must stay 4", v, snapshotVersion)
	}
	loaded, err := ReadRepresentation(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("re-encoding the fixture changed its bytes")
	}

	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	fresh, err := Build(view, workload.SkewedTriangleDB(11, 20, 90), WithStrategy(PrimitiveStrategy), WithTau(2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Stats().Entries, fresh.Stats().Entries; got != want || got == 0 {
		t.Fatalf("fixture holds %d entries, fresh compile %d", got, want)
	}
	requests := 0
	for _, x := range fresh.Instance().BoundDomain(0) {
		for _, z := range fresh.Instance().BoundDomain(1) {
			vb := relation.Tuple{x, z}
			got, want := Drain(loaded.Query(vb)), Drain(fresh.Query(vb))
			if len(got) != len(want) {
				t.Fatalf("request %v: fixture answers %d tuples, fresh compile %d", vb, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("request %v answer %d: fixture %v, fresh compile %v", vb, i, got[i], want[i])
				}
			}
			requests += len(want)
		}
	}
	if requests == 0 {
		t.Fatal("fixture view is empty; the comparison is vacuous")
	}
}

// TestSnapshotRejectsRepeatedDictionaryKey: a primitive snapshot whose last
// dictionary entry repeats the one before it is corrupt, not a dictionary
// in which the later entry wins.
func TestSnapshotRejectsRepeatedDictionaryKey(t *testing.T) {
	raw, err := os.ReadFile("testdata/triangle_v4.cqs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRepresentation(bytes.NewReader(repeatLastDictEntry(t, raw))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotRejectsDisorderedBucket: a materialized snapshot whose bucket
// repeats or reorders its answers is corrupt. Serving it would break
// "every answer exactly once, in order".
func TestSnapshotRejectsDisorderedBucket(t *testing.T) {
	if _, err := ReadRepresentation(bytes.NewReader(disorderedBucket(t))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
}

// disorderedBucket is a single-bucket materialized snapshot of
// W[bf](x, y) :- S(x, y) over S = {(1,10), (1,20), (1,30)} whose bucket is
// rewritten to (30), (30), (10) and re-framed with a valid checksum. The
// payload ends with the bucket's three values, 8 bytes each.
func disorderedBucket(t testing.TB) []byte {
	t.Helper()
	s := relation.NewRelation("S", 2)
	for _, y := range []relation.Value{10, 20, 30} {
		s.MustInsert(1, y)
	}
	db := relation.NewDatabase()
	db.Add(s)
	rep, err := Build(cq.MustParse("W[bf](x, y) :- S(x, y)"), db, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), stripFrame(buf.Bytes())...)
	tail := payload[len(payload)-24:]
	for i, v := range []uint64{30, 30, 10} {
		binary.BigEndian.PutUint64(tail[8*i:], v)
	}
	return framePayload(snapshotVersion, payload)
}

// repeatLastDictEntry rewrites a single-backend primitive snapshot frame
// so its last heavy-pair dictionary entry names the same node as the one
// before it — the same (node, valuation) pair twice — and re-frames it
// with a valid checksum. The payload ends with the dictionary's last
// valuation's id deltas and then its bitmap, so the entry's delta is the
// uvarint just before the bitmap; it becomes 0.
func repeatLastDictEntry(t testing.TB, frame []byte) []byte {
	t.Helper()
	rep, err := ReadRepresentation(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.be.(primitiveBackend).s
	d := s.Stats().DictEntries
	if d < 2 {
		t.Fatalf("fixture dictionary holds %d entries", d)
	}
	payload := stripFrame(frame)
	end := len(payload) - (d+7)/8 // the bitmap starts here
	start := end - 1
	for start > 0 && payload[start-1]&0x80 != 0 {
		start--
	}
	out := append(append(append([]byte(nil), payload[:start]...), 0), payload[end:]...)
	return framePayload(snapshotVersion, out)
}
