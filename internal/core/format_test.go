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

// TestSnapshotFormatFixture loads testdata/triangle_v2.cqs, a Theorem-1
// snapshot of the mutual-friend view over workload.SkewedTriangleDB(11, 20,
// 90) at τ = 2, written by the encoder that kept the heavy-pair dictionary
// in a string-keyed map and sorted it on write. The flat table must read
// it unchanged (format version 2), write it back byte for byte, and answer
// every request exactly like a fresh compile of the same inputs.
func TestSnapshotFormatFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/triangle_v2.cqs")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint16(raw[len(snapshotMagic):]); v != 2 || snapshotVersion != 2 {
		t.Fatalf("fixture is version %d, this build writes %d; both must stay 2", v, snapshotVersion)
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
	for _, x := range fresh.inst.BoundDomains[0] {
		for _, z := range fresh.inst.BoundDomains[1] {
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
	raw, err := os.ReadFile("testdata/triangle_v2.cqs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRepresentation(bytes.NewReader(repeatLastDictEntry(raw, 2))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
}

// repeatLastDictEntry rewrites a single-backend primitive snapshot frame
// so its last heavy-pair dictionary entry — the payload's final bytes — is
// a copy of the one before it, and re-frames it with a valid checksum. nb
// is the view's number of bound variables.
func repeatLastDictEntry(frame []byte, nb int) []byte {
	payload := append([]byte(nil), stripFrame(frame)...)
	entry := 4 + 8*nb + 1
	n := len(payload)
	copy(payload[n-entry:], payload[n-2*entry:n-entry])
	return framePayload(snapshotVersion, payload)
}
