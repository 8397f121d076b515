package primitive

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/fractional"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// skewedTriangle builds the mutual-friend structure over a hub-heavy graph
// at a τ low enough that the dictionary holds 0-, 1- and ⊥-pairs at many
// nodes. It also returns the edges (x, z) as bound valuations.
func skewedTriangle(t *testing.T, exhaustive bool) (*Structure, []relation.Tuple) {
	t.Helper()
	db := workload.SkewedTriangleDB(7, 120, 900)
	nv, err := cq.Normalize(cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	build := Build
	if exhaustive {
		build = BuildExhaustive
	}
	s, err := build(inst, fractional.Cover{1, 1, 1}, math.Sqrt(900)/6)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("R")
	vbs := make([]relation.Tuple, r.Len())
	for i := range vbs {
		vbs[i] = relation.Tuple{r.Row(i)[0], r.Row(i)[1]}
	}
	return s, vbs
}

// dictRef is the test's own model of the dictionary: (node, valuation) →
// bit in a plain map.
func dictRef(s *Structure) map[string]byte {
	ref := make(map[string]byte)
	for e, bit := range s.dict.bits {
		if bit == absent {
			continue
		}
		id, vb := s.dict.entry(e)
		ref[refKey(id, vb)] = bit
	}
	return ref
}

func refKey(id int32, vb relation.Tuple) string {
	return string(vb.AppendEncode([]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}))
}

// TestDictTableInvariants pins the flat table against a reference map:
// every built entry looks up to its bit, every other key — including a
// stored valuation asked at another node — looks up to ⊥, and DeltaRebase
// is copy-on-write.
func TestDictTableInvariants(t *testing.T) {
	for _, exhaustive := range []bool{false, true} {
		s, vbs := skewedTriangle(t, exhaustive)
		ref := dictRef(s)
		if len(ref) != s.Stats().DictEntries || len(ref) == 0 {
			t.Fatalf("reference holds %d entries, Stats %d", len(ref), s.Stats().DictEntries)
		}

		// Every entry, and every entry's valuation at every node.
		for e := range s.dict.bits {
			id, vb := s.dict.entry(e)
			if bit, ok := s.DictBit(id, vb); !ok || bit != ref[refKey(id, vb)] {
				t.Fatalf("entry %d (%d, %v) reads %d/%v", e, id, vb, bit, ok)
			}
			for other := int32(0); other < int32(len(s.nodes)); other++ {
				want, heavy := ref[refKey(other, vb)]
				if bit, ok := s.DictBit(other, vb); ok != heavy || bit != want {
					t.Fatalf("(%d, %v) reads %d/%v, reference %d/%v", other, vb, bit, ok, want, heavy)
				}
			}
		}
		// Valuations the build never stored, and a wrong arity.
		for _, vb := range append(vbs, relation.Tuple{-1, -1}, relation.Tuple{1 << 40, 3}) {
			for id := int32(0); id < int32(len(s.nodes)); id++ {
				want, heavy := ref[refKey(id, vb)]
				if bit, ok := s.DictBit(id, vb); ok != heavy || bit != want {
					t.Fatalf("(%d, %v) reads %d/%v, reference %d/%v", id, vb, bit, ok, want, heavy)
				}
			}
		}
		if _, ok := s.DictBit(0, relation.Tuple{1}); ok {
			t.Fatal("a valuation of the wrong arity must read ⊥")
		}

		// DeltaRebase: an added output inside a 0-entry's interval turns
		// that entry ⊥ in the child only. At this τ only the exhaustive
		// build stores 0-entries.
		e0 := bytes.IndexByte(s.dict.bits, 0)
		if e0 < 0 {
			if exhaustive {
				t.Fatal("exhaustive fixture has no 0-entries")
			}
			continue
		}
		id, vb := s.dict.entry(e0)
		ft := pointIn(t, s.nodes[id].iv, s.inst.Mu)
		child, ok := s.DeltaRebase(s.inst, []relation.Tuple{vb}, []relation.Tuple{ft})
		if !ok {
			t.Fatal("DeltaRebase refused an output inside the root interval")
		}
		if bit, ok := s.DictBit(id, vb); !ok || bit != 0 {
			t.Fatalf("parent now reads %d/%v for its 0-entry", bit, ok)
		}
		if _, ok := child.DictBit(id, vb); ok {
			t.Fatal("child still reads the stale 0-entry")
		}
		if &child.dict.keys[0] != &s.dict.keys[0] || &child.dict.slots[0] != &s.dict.slots[0] {
			t.Fatal("DeltaRebase copied the keys or the slot index")
		}
		if &child.dict.bits[0] == &s.dict.bits[0] {
			t.Fatal("DeltaRebase wrote through to the parent's bits")
		}
		if got, want := child.Stats().DictEntries, s.Stats().DictEntries; got >= want {
			t.Fatalf("child has %d entries, parent %d", got, want)
		}
		if got := dictRef(s); len(got) != len(ref) {
			t.Fatalf("parent dictionary changed: %d entries, was %d", len(got), len(ref))
		}
		// The child's snapshot omits the invalidated entry and decodes to
		// the same lookups.
		var buf bytes.Buffer
		child.EncodeTo(relation.NewEncoder(&buf))
		back, err := Decode(relation.NewDecoder(buf.Bytes()), s.inst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dictRef(back), dictRef(child)) {
			t.Fatal("decoded child disagrees with child")
		}
	}
}

// pointIn returns a free tuple inside the interval (which must be
// non-empty): a point of its first canonical box.
func pointIn(t *testing.T, iv interval.Interval, mu int) relation.Tuple {
	t.Helper()
	boxes := interval.Decompose(iv)
	if len(boxes) == 0 {
		t.Fatal("empty node interval")
	}
	b := boxes[0]
	ft := make(relation.Tuple, mu)
	copy(ft, b.Prefix)
	if b.HasRange {
		v := b.Lo
		if !b.LoInc {
			v++
		}
		ft[len(b.Prefix)] = v
	}
	if !iv.Contains(ft) {
		t.Fatalf("point %v outside %v", ft, iv)
	}
	return ft
}

// TestDecodeRejectsBadDictionary: a dictionary this package did not write
// — keys out of order or repeated, a node the tree lacks, a bit that is
// neither 0 nor 1 — fails to decode instead of loading something else.
func TestDecodeRejectsBadDictionary(t *testing.T) {
	s, _ := skewedTriangle(t, false)
	var buf bytes.Buffer
	s.EncodeTo(relation.NewEncoder(&buf))
	good := buf.Bytes()
	entry := 4 + 8*len(s.inst.NV.Bound) + 1
	last := len(good) - entry
	prev := last - entry
	for _, tc := range []struct {
		name   string
		mutate func(p []byte)
		ok     bool
	}{
		{"unchanged", func([]byte) {}, true},
		{"duplicate key", func(p []byte) { copy(p[last:], p[prev:last]) }, false},
		{"keys out of order", func(p []byte) {
			tmp := append([]byte(nil), p[last:]...)
			copy(p[last:], p[prev:last])
			copy(p[prev:], tmp)
		}, false},
		{"node out of range", func(p []byte) { copy(p[last:], []byte{0xff, 0xff, 0xff, 0xff}) }, false},
		{"node equals node count", func(p []byte) {
			n := uint32(len(s.nodes))
			copy(p[last:], []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)})
		}, false},
		{"bit 2", func(p []byte) { p[len(p)-1] = 2 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := append([]byte(nil), good...)
			tc.mutate(p)
			_, err := Decode(relation.NewDecoder(p), s.inst)
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestQueryAllocsConstant pins the allocation-free probe path: draining a
// hub request that visits many ⊥ nodes allocates one tuple per answer plus
// a constant that does not grow with the light nodes visited.
func TestQueryAllocsConstant(t *testing.T) {
	s, vbs := skewedTriangle(t, false)
	// Pick the request whose traversal meets the most ⊥ nodes.
	var hub relation.Tuple
	most := 0
	for _, vb := range vbs {
		if n := lightVisits(s, s.root, vb); n > most {
			hub, most = vb, n
		}
	}
	if most < 20 {
		t.Fatalf("fixture's busiest request visits only %d ⊥ nodes", most)
	}
	answers := len(s.Query(hub).Drain())
	allocs := testing.AllocsPerRun(20, func() {
		it := s.Query(hub)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	})
	if limit := float64(answers + 10); allocs > limit {
		t.Fatalf("request %v (%d answers, %d ⊥ nodes) allocates %.0f, limit %.0f", hub, answers, most, allocs, limit)
	}
	t.Logf("request %v: %d answers, %d ⊥ nodes, %.0f allocations", hub, answers, most, allocs)
}

// lightVisits counts the ⊥ nodes Algorithm 2 reaches for vb under n.
func lightVisits(s *Structure, n *node, vb relation.Tuple) int {
	if n == nil {
		return 0
	}
	bit, heavy := s.DictBit(n.id, vb)
	switch {
	case !heavy:
		return 1
	case bit == 0:
		return 0
	}
	return lightVisits(s, n.left, vb) + lightVisits(s, n.right, vb)
}
