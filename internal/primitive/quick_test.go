package primitive

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"cqrep/internal/relation"
)

// TestQuickDictKeyRoundTrip: a (node, valuation) pair stored in the table
// looks up to its bit, reads back as the same pair, and survives the
// snapshot encoding — the table cannot lose or alter a key.
func TestQuickDictKeyRoundTrip(t *testing.T) {
	f := func(rawID uint16, a, b, c int64, one bool) bool {
		id := int32(rawID % 512)
		vb := relation.Tuple{relation.Value(a), relation.Value(b), relation.Value(c)}
		bit := byte(0)
		if one {
			bit = 1
		}
		perNode := make([]nodeEntries, id+1)
		perNode[id].add(vb, bit)
		tab := joinDict(3, perNode)
		if got, ok := tab.lookup(id, vb); !ok || got != bit {
			return false
		}
		if tab.nvals() != 1 || tab.ids[0] != id || !tab.valuation(0).Equal(vb) {
			return false
		}
		var buf bytes.Buffer
		enc := relation.NewEncoder(&buf)
		tab.encodeTo(enc)
		back, err := decodeDict(relation.NewDecoder(buf.Bytes()), 3, int(id)+1)
		return err == nil && reflect.DeepEqual(back.vals, tab.vals) && reflect.DeepEqual(back.off, tab.off) &&
			reflect.DeepEqual(back.ids, tab.ids) && reflect.DeepEqual(back.bits, tab.bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickDictKeyInjective: distinct pairs get distinct entries — neither
// reads the other's bit, not even the same valuation at another node.
func TestQuickDictKeyInjective(t *testing.T) {
	f := func(raw1, raw2 uint16, a1, a2 int64) bool {
		id1, id2 := int32(raw1%64), int32(raw2%64)
		vb1, vb2 := relation.Tuple{relation.Value(a1)}, relation.Tuple{relation.Value(a2)}
		same := id1 == id2 && a1 == a2
		perNode := make([]nodeEntries, 64)
		perNode[id1].add(vb1, 1)
		if !same {
			perNode[id2].add(vb2, 0)
		}
		tab := joinDict(1, perNode)
		bit1, ok1 := tab.lookup(id1, vb1)
		bit2, ok2 := tab.lookup(id2, vb2)
		if !ok1 || !ok2 || bit1 != 1 {
			return false
		}
		return (bit2 == 1) == same && (tab.live == 1) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
