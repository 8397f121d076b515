package primitive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
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

// dictEntry is one stored entry as the test sees it.
type dictEntry struct {
	id  int32
	vb  relation.Tuple
	bit byte
	e   int // index into ids/bits
}

// dictEntries lists every stored entry, absent ones included, valuation by
// valuation.
func dictEntries(t *dict) []dictEntry {
	var out []dictEntry
	for v := 0; v < t.nvals(); v++ {
		vb := t.valuation(v)
		for e := int(t.off[v]); e < int(t.off[v+1]); e++ {
			out = append(out, dictEntry{id: t.ids[e], vb: vb, bit: t.bits[e], e: e})
		}
	}
	return out
}

// dictRef is the test's own model of the dictionary: (node, valuation) →
// bit in a plain map.
func dictRef(s *Structure) map[string]byte {
	ref := make(map[string]byte)
	for _, en := range dictEntries(&s.dict) {
		if en.bit != absent {
			ref[refKey(en.id, en.vb)] = en.bit
		}
	}
	return ref
}

func refKey(id int32, vb relation.Tuple) string {
	return string(vb.AppendEncode([]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}))
}

// TestDictTableInvariants pins the valuation-major table against a
// reference map: every built entry looks up to its bit, every other key —
// including a stored valuation asked at another node — looks up to ⊥, the
// arrays keep their sort orders, and DeltaRebase is copy-on-write.
func TestDictTableInvariants(t *testing.T) {
	for _, exhaustive := range []bool{false, true} {
		s, vbs := skewedTriangle(t, exhaustive)
		ref := dictRef(s)
		if len(ref) != s.Stats().DictEntries || len(ref) == 0 {
			t.Fatalf("reference holds %d entries, Stats %d", len(ref), s.Stats().DictEntries)
		}
		d := &s.dict
		for v := 1; v < d.nvals(); v++ {
			if compareWords(d.valWords(v-1), d.valWords(v)) >= 0 {
				t.Fatalf("valuation %d is not above its predecessor", v)
			}
		}
		for v := 0; v < d.nvals(); v++ {
			if d.off[v+1] <= d.off[v] {
				t.Fatalf("valuation %d has no entries", v)
			}
			for e := d.off[v] + 1; e < d.off[v+1]; e++ {
				if d.ids[e] <= d.ids[e-1] {
					t.Fatalf("valuation %d: ids not increasing at entry %d", v, e)
				}
			}
		}

		// Every entry, and every entry's valuation at every node.
		for _, en := range dictEntries(d) {
			if bit, ok := s.DictBit(en.id, en.vb); !ok || bit != ref[refKey(en.id, en.vb)] {
				t.Fatalf("entry %d (%d, %v) reads %d/%v", en.e, en.id, en.vb, bit, ok)
			}
			for other := int32(0); other < int32(len(s.nodes)); other++ {
				want, heavy := ref[refKey(other, en.vb)]
				if bit, ok := s.DictBit(other, en.vb); ok != heavy || bit != want {
					t.Fatalf("(%d, %v) reads %d/%v, reference %d/%v", other, en.vb, bit, ok, want, heavy)
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
		e0 := bytes.IndexByte(d.bits, 0)
		if e0 < 0 {
			if exhaustive {
				t.Fatal("exhaustive fixture has no 0-entries")
			}
			continue
		}
		var id int32
		var vb relation.Tuple
		for _, en := range dictEntries(d) {
			if en.e == e0 {
				id, vb = en.id, en.vb
			}
		}
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
		cd := &child.dict
		if &cd.vals[0] != &d.vals[0] || &cd.off[0] != &d.off[0] || &cd.ids[0] != &d.ids[0] || &cd.slots[0] != &d.slots[0] {
			t.Fatal("DeltaRebase copied the valuations, offsets, ids or the slot index")
		}
		if &cd.bits[0] == &d.bits[0] {
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

// TestDeltaRebaseAllocs pins DeltaRebase's descent to zero allocations per
// level: rebasing every answer of the fixture (whose entries are all 1, so
// nothing turns stale) allocates the new Structure and nothing else, however
// many outputs it walks down the tree.
func TestDeltaRebaseAllocs(t *testing.T) {
	s, vbs := skewedTriangle(t, false)
	var addVb, addFree []relation.Tuple
	for _, vb := range vbs {
		it := s.Query(vb)
		for ft, ok := it.Next(); ok; ft, ok = it.Next() {
			addVb, addFree = append(addVb, vb), append(addFree, ft)
		}
	}
	if len(addFree) < 100 || s.maxLevel < 3 {
		t.Fatalf("%d outputs over %d levels; the fixture must walk deep chains", len(addFree), s.maxLevel)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, ok := s.DeltaRebase(s.inst, addVb, addFree); !ok {
			t.Fatal("DeltaRebase refused an output of the view")
		}
	})
	if allocs > 1 {
		t.Fatalf("DeltaRebase of %d outputs allocates %.0f times, want 1", len(addFree), allocs)
	}
}

// TestDictFootprint pins the dictionary's size per live entry: at most
// 2.5 bytes encoded and 8 bytes of arrays in memory. A table keyed by
// (node, valuation) pays the valuation's words on every entry and cannot
// meet either bound on this fixture.
func TestDictFootprint(t *testing.T) {
	s, _ := skewedTriangle(t, false)
	n := s.dict.live
	var buf bytes.Buffer
	s.dict.encodeTo(relation.NewEncoder(&buf))
	d := &s.dict
	mem := 8*len(d.vals) + 4*len(d.off) + 4*len(d.ids) + len(d.bits) + 4*len(d.slots)
	t.Logf("%d entries on %d valuations: %d B encoded (%.2f B/entry), %d B in memory (%.2f B/entry)",
		n, d.nvals(), buf.Len(), float64(buf.Len())/float64(n), mem, float64(mem)/float64(n))
	if n < 1000 {
		t.Fatalf("fixture holds only %d entries", n)
	}
	if perEntry := float64(buf.Len()) / float64(n); perEntry > 2.5 {
		t.Errorf("dictionary encodes to %.2f B per entry, want ≤ 2.5", perEntry)
	}
	if perEntry := float64(mem) / float64(n); perEntry > 8 {
		t.Errorf("dictionary arrays hold %.2f B per entry, want ≤ 8", perEntry)
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

// v3Dict is the snapshot dictionary layout spelled out field by field, so
// a test can write any of its fields wrong.
type v3Dict struct {
	nv, n uint64 // the valuation and entry counts of the header
	vals  []v3Val
	bits  []byte // one per entry, packed into the bitmap
	pad   byte   // or-ed into the bitmap's last byte
}

type v3Val struct {
	k, delta uint64   // first differing word and its delta; not for the first valuation
	words    []uint64 // the plain words: all for the first valuation, those after k otherwise
	count    uint64
	ids      []uint64 // the first id, then deltas
}

// specOf spells out the live entries of t in the layout encodeTo writes.
func specOf(t *dict) v3Dict {
	sp := v3Dict{nv: uint64(t.nvals()), n: uint64(t.live)}
	for v := 0; v < t.nvals(); v++ {
		w := t.valWords(v)
		var val v3Val
		if v == 0 {
			val.words = slices.Clone(w)
		} else {
			prev := t.valWords(v - 1)
			k := 0
			for w[k] == prev[k] {
				k++
			}
			val.k, val.delta, val.words = uint64(k), w[k]-prev[k], slices.Clone(w[k+1:])
		}
		last := int32(0)
		for e := t.off[v]; e < t.off[v+1]; e++ {
			val.ids = append(val.ids, uint64(t.ids[e]-last))
			last = t.ids[e]
			sp.bits = append(sp.bits, t.bits[e])
		}
		val.count = uint64(len(val.ids))
		sp.vals = append(sp.vals, val)
	}
	return sp
}

func (sp v3Dict) bytes() []byte {
	p := binary.AppendUvarint(nil, sp.nv)
	p = binary.AppendUvarint(p, sp.n)
	for i, val := range sp.vals {
		if i > 0 {
			p = binary.AppendUvarint(p, val.k)
			p = binary.AppendUvarint(p, val.delta)
		}
		for _, w := range val.words {
			p = binary.AppendUvarint(p, w)
		}
		p = binary.AppendUvarint(p, val.count)
		for _, id := range val.ids {
			p = binary.AppendUvarint(p, id)
		}
	}
	packed := make([]byte, (len(sp.bits)+7)/8)
	for i, bit := range sp.bits {
		packed[i/8] |= bit << (i % 8)
	}
	if len(packed) > 0 {
		packed[len(packed)-1] |= sp.pad
	}
	return append(p, packed...)
}

// TestDecodeRejectsBadDictionary: a dictionary this package did not write
// — a valuation repeated, out of order or without entries, a node id
// repeated or beyond the tree, counts that disagree, padding bits set —
// fails to decode instead of loading something else.
func TestDecodeRejectsBadDictionary(t *testing.T) {
	s, _ := skewedTriangle(t, false)
	var buf bytes.Buffer
	s.EncodeTo(relation.NewEncoder(&buf))
	good := slices.Clone(buf.Bytes())
	buf.Reset()
	s.dict.encodeTo(relation.NewEncoder(&buf))
	tree := good[:len(good)-buf.Len()]
	spec := specOf(&s.dict)
	if !bytes.Equal(spec.bytes(), buf.Bytes()) {
		t.Fatal("the spelled-out layout does not match encodeTo's bytes")
	}
	nb := uint64(len(s.inst.NV.Bound))
	lastV := len(spec.vals) - 1
	if spec.vals[lastV].count < 2 {
		t.Fatal("fixture's last valuation needs two entries")
	}
	lastID := func(sp *v3Dict) *uint64 { ids := sp.vals[lastV].ids; return &ids[len(ids)-1] }
	for _, tc := range []struct {
		name   string
		mutate func(sp *v3Dict)
		ok     bool
	}{
		{"unchanged", func(*v3Dict) {}, true},
		{"repeated valuation", func(sp *v3Dict) { sp.vals[lastV].delta = 0 }, false},
		{"keys out of order", func(sp *v3Dict) { sp.vals[lastV].delta = ^uint64(0) }, false},
		{"first differing word out of range", func(sp *v3Dict) {
			val := &sp.vals[lastV]
			val.k, val.words = nb, nil
		}, false},
		{"valuation without entries", func(sp *v3Dict) {
			val := &sp.vals[lastV]
			sp.n -= val.count
			sp.bits = sp.bits[:sp.n]
			val.count, val.ids = 0, nil
		}, false},
		{"duplicate key", func(sp *v3Dict) { *lastID(sp) = 0 }, false},
		{"node out of range", func(sp *v3Dict) { sp.vals[lastV].ids[0] = 0xffffffff }, false},
		{"node equals node count", func(sp *v3Dict) {
			ids := sp.vals[lastV].ids
			sum := uint64(0)
			for _, d := range ids[:len(ids)-1] {
				sum += d
			}
			ids[len(ids)-1] = uint64(len(s.nodes)) - sum
		}, false},
		{"total above the entries", func(sp *v3Dict) { sp.n++ }, false},
		{"total below the entries", func(sp *v3Dict) { sp.n-- }, false},
		{"more valuations than written", func(sp *v3Dict) { sp.nv++ }, false},
		{"padding bit set", func(sp *v3Dict) {
			if sp.n%8 == 0 { // drop the last entry, so the last byte has padding
				val := &sp.vals[lastV]
				val.count--
				val.ids = val.ids[:val.count]
				sp.n--
				sp.bits = sp.bits[:sp.n]
			}
			sp.pad = 0x80
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := specOf(&s.dict)
			tc.mutate(&sp)
			p := append(slices.Clone(tree), sp.bytes()...)
			_, err := Decode(relation.NewDecoder(p), s.inst)
			t.Log(err)
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestDecodeRejectsBadTree: child links that do not number the tree in
// pre-order — a node with two parents, children swapped, a node no link
// reaches — fail to decode. The dictionary's forward cursor depends on
// that order: a tree decoded from such links would enumerate a subtree
// twice or skip entries silently.
func TestDecodeRejectsBadTree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, s *Structure) int32 // returns the node the error must name, or −1
	}{
		{"unchanged", func(*testing.T, *Structure) int32 { return -1 }},
		{"shared child", func(t *testing.T, s *Structure) int32 {
			// p's right link also takes its left child's left child.
			for _, p := range s.nodes {
				if p.left != nil && p.right != nil && p.left.left != nil {
					p.right = p.left.left
					return p.id
				}
			}
			t.Fatal("no node with a left grandchild and a right child")
			return 0
		}},
		{"swapped children", func(t *testing.T, s *Structure) int32 {
			for _, p := range s.nodes {
				if p.left != nil && p.right != nil {
					p.left, p.right = p.right, p.left
					return p.id
				}
			}
			t.Fatal("no node with two children")
			return 0
		}},
		{"unreachable node", func(t *testing.T, s *Structure) int32 {
			last := s.nodes[len(s.nodes)-1]
			for _, p := range s.nodes {
				if p.left == last {
					p.left = nil
				}
				if p.right == last {
					p.right = nil
				}
			}
			return last.id
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := skewedTriangle(t, false)
			want := tc.mutate(t, s)
			var buf bytes.Buffer
			s.EncodeTo(relation.NewEncoder(&buf))
			_, err := Decode(relation.NewDecoder(buf.Bytes()), s.inst)
			switch {
			case want < 0 && err != nil:
				t.Fatalf("unchanged tree: %v", err)
			case want >= 0 && err == nil:
				t.Fatal("decoded a tree whose links break pre-order")
			case want >= 0 && !strings.Contains(err.Error(), fmt.Sprintf(" %d ", want)) && !strings.HasSuffix(err.Error(), fmt.Sprintf(" %d", want)):
				t.Fatalf("err = %v, want it to name node %d", err, want)
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
