package primitive

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"

	"cqrep/internal/relation"
)

// dict is the heavy-pair dictionary of Appendix A, stored valuation-major
// as flat, pointer-free arrays, so the garbage collector never scans it and
// a probe allocates nothing.
//
// Algorithm 2 probes the dictionary with one bound valuation at every tree
// node a request visits, and it visits nodes in increasing pre-order id. So
// the table is a CSR over the distinct valuations: valuation v is
// vals[v*nb : (v+1)*nb] (each value as its uint64 bit pattern, valuations
// sorted with the words compared as unsigned integers), and its entries
// are [off[v], off[v+1]) of ids and bits, node ids strictly increasing. A
// request finds its valuation once and then walks the id list forward.
//
// bits[e] is the entry's bit, or absent for an entry that DeltaRebase
// invalidated: the entry stays, because vals, off, ids and slots are
// shared copy-on-write between a structure and its rebases, but the pair
// reads ⊥.
//
// slots is an open-addressing index over the valuations (−1 marks a free
// slot, at most three quarters of the slots are used), probed linearly
// from a seeded hash of the valuation and confirmed against its words.
type dict struct {
	nb    int
	vals  []uint64
	off   []int32
	ids   []int32
	bits  []byte
	slots []int32
	seed  uint64
	live  int // entries whose bit is not absent
}

// absent marks an invalidated entry in dict.bits.
const absent byte = 0xff

// emptyDict returns a dictionary with no entries for nb bound variables.
func emptyDict(nb int) dict { return dict{nb: nb, off: []int32{0}} }

// nvals returns the number of distinct valuations.
func (t *dict) nvals() int { return len(t.off) - 1 }

// valWords returns valuation v's words.
func (t *dict) valWords(v int) []uint64 { return t.vals[v*t.nb : (v+1)*t.nb] }

// footprint returns the bytes the dictionary's arrays hold.
func (t *dict) footprint() int {
	return 8*len(t.vals) + 4*len(t.off) + 4*len(t.ids) + len(t.bits) + 4*len(t.slots)
}

// nodeEntries collects one tree node's heavy pairs during the build: the
// bound valuations (nb words each) and their bits, in the order found.
type nodeEntries struct {
	vbs  []uint64
	bits []byte
}

func (ne *nodeEntries) add(vb relation.Tuple, bit byte) {
	for _, v := range vb {
		ne.vbs = append(ne.vbs, uint64(v))
	}
	ne.bits = append(ne.bits, bit)
}

// joinDict builds the table from the per-node entries, given in node id
// order with each valuation at most once per node. Bucketing the entries
// by valuation in that order leaves every id list sorted, so only the
// distinct valuations need sorting, and the table depends on the entries
// alone, not on which worker computed which node.
func joinDict(nb int, perNode []nodeEntries) dict {
	t := emptyDict(nb)
	n := 0
	for _, ne := range perNode {
		n += len(ne.bits)
	}
	// Number the distinct valuations in first-seen order.
	first := make(map[string]int32)
	var (
		words []uint64 // valuations by first-seen number
		count []int32
		key   []byte
	)
	number := make([]int32, 0, n) // per entry, in node order
	for _, ne := range perNode {
		for i := range ne.bits {
			vb := ne.vbs[i*nb : (i+1)*nb]
			key = key[:0]
			for _, w := range vb {
				key = binary.LittleEndian.AppendUint64(key, w)
			}
			k, ok := first[string(key)]
			if !ok {
				k = int32(len(count))
				first[string(key)] = k
				words = append(words, vb...)
				count = append(count, 0)
			}
			count[k]++
			number = append(number, k)
		}
	}
	nv := len(count)
	order := make([]int32, nv)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return compareWords(words[int(a)*nb:int(a+1)*nb], words[int(b)*nb:int(b+1)*nb])
	})
	t.vals = make([]uint64, 0, nv*nb)
	t.off = make([]int32, nv+1)
	next := make([]int32, nv) // per first-seen number: its next entry slot
	for v, k := range order {
		t.vals = append(t.vals, words[int(k)*nb:int(k+1)*nb]...)
		next[k] = t.off[v]
		t.off[v+1] = t.off[v] + count[k]
	}
	t.ids = make([]int32, n)
	t.bits = make([]byte, n)
	e := 0
	for id, ne := range perNode {
		for i := range ne.bits {
			k := number[e]
			t.ids[next[k]] = int32(id)
			t.bits[next[k]] = ne.bits[i]
			next[k]++
			e++
		}
	}
	t.live = n
	t.index()
	return t
}

// compareWords orders two valuations word by word as unsigned integers.
func compareWords(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// index builds the slot index over the valuations under a fresh seed.
func (t *dict) index() {
	nv := t.nvals()
	if nv == 0 {
		t.slots = nil
		return
	}
	size := 2
	for 3*size < 4*nv {
		size <<= 1
	}
	t.seed = rand.Uint64()
	t.slots = make([]int32, size)
	for i := range t.slots {
		t.slots[i] = -1
	}
	mask := uint64(size - 1)
	for v := 0; v < nv; v++ {
		i := hashVal(t.seed, t.valWords(v)) & mask
		for t.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(v)
	}
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashVal hashes a valuation under seed. The valuation is a probe's
// relation.Tuple or a stored valuation's words; both hash alike.
func hashVal[V ~int64 | ~uint64](seed uint64, vb []V) uint64 {
	h := mix(seed)
	for _, v := range vb {
		h = mix(h ^ uint64(v))
	}
	return h
}

// span returns valuation vb's entry range [lo, hi), empty when no entry
// has it.
func (t *dict) span(vb relation.Tuple) (lo, hi int) {
	if len(t.slots) == 0 || len(vb) != t.nb {
		return 0, 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashVal(t.seed, vb) & mask; ; i = (i + 1) & mask {
		v := int(t.slots[i])
		if v < 0 {
			return 0, 0
		}
		w := t.valWords(v)
		match := true
		for k, x := range vb {
			if w[k] != uint64(x) {
				match = false
				break
			}
		}
		if match {
			return int(t.off[v]), int(t.off[v+1])
		}
	}
}

// seek returns the first entry in [lo, hi) whose node id is at least id,
// or hi. It gallops from lo, so a cursor that moves forward through one
// valuation's ids pays for the distance it skips, not for the list.
func (t *dict) seek(lo, hi int, id int32) int {
	if lo >= hi || t.ids[lo] >= id {
		return lo
	}
	// ids[lo] < id: widen the step until ids[lo+step] reaches id.
	step := 1
	for lo+step < hi && t.ids[lo+step] < id {
		lo += step
		step <<= 1
	}
	lo, hi = lo+1, min(lo+step, hi)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// at looks node id up in the entry range [lo, hi), which holds no id
// below the ones still to be asked: it returns the entry's bit, false for
// ⊥, and where the range's next lookup starts.
func (t *dict) at(lo, hi int, id int32) (bit byte, heavy bool, next int) {
	e := t.seek(lo, hi, id)
	if e == hi || t.ids[e] != id {
		return 0, false, e
	}
	return t.bits[e], t.bits[e] != absent, e + 1
}

// lookup returns the dictionary entry for (id, vb): 0, 1, or ⊥ (ok ==
// false) when the pair is not heavy.
func (t *dict) lookup(id int32, vb relation.Tuple) (byte, bool) {
	lo, hi := t.span(vb)
	bit, ok, _ := t.at(lo, hi, id)
	return bit, ok
}

// valuation returns a fresh copy of valuation v.
func (t *dict) valuation(v int) relation.Tuple {
	vb := make(relation.Tuple, t.nb)
	for k, w := range t.valWords(v) {
		vb[k] = relation.Value(w)
	}
	return vb
}

// encodeTo writes the live entries valuation by valuation: the valuation
// and entry counts, then per valuation its words front-coded against the
// previous valuation, its entry count and its node ids as deltas, and
// last the bits of every entry as one packed bitmap. The first valuation
// is written as nb plain uvarints; a later one as the index k of the first
// word that differs from its predecessor, that word's (positive) delta,
// and words k+1.. as plain uvarints. The first id of a valuation is
// written as is, each later one as its (positive) delta.
func (t *dict) encodeTo(e *relation.Encoder) {
	nv := 0
	for v := 0; v < t.nvals(); v++ {
		if t.liveIn(v) > 0 {
			nv++
		}
	}
	buf := binary.AppendUvarint(nil, uint64(nv))
	buf = binary.AppendUvarint(buf, uint64(t.live))
	packed := make([]byte, (t.live+7)/8)
	var prev []uint64
	i := 0 // live entries written
	for v := 0; v < t.nvals(); v++ {
		c := t.liveIn(v)
		if c == 0 {
			continue
		}
		w := t.valWords(v)
		k := 0
		if prev != nil {
			for w[k] == prev[k] {
				k++
			}
			buf = binary.AppendUvarint(buf, uint64(k))
			buf = binary.AppendUvarint(buf, w[k]-prev[k])
			k++
		}
		for _, x := range w[k:] {
			buf = binary.AppendUvarint(buf, x)
		}
		prev = w
		buf = binary.AppendUvarint(buf, uint64(c))
		last := int32(0)
		for e := t.off[v]; e < t.off[v+1]; e++ {
			if t.bits[e] == absent {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(t.ids[e]-last))
			last = t.ids[e]
			packed[i>>3] |= t.bits[e] << (i & 7)
			i++
		}
	}
	e.Raw(append(buf, packed...))
}

// liveIn counts valuation v's entries that are not absent.
func (t *dict) liveIn(v int) int {
	c := 0
	for _, bit := range t.bits[t.off[v]:t.off[v+1]] {
		if bit != absent {
			c++
		}
	}
	return c
}

// decodeDict reads a dictionary written by encodeTo for a tree of nNodes
// nodes and nb bound variables. Valuations must be strictly increasing,
// each must have at least one entry, ids must be strictly increasing
// within a valuation and name an existing node, the entries must add up
// to the stated total, and the bitmap's padding bits must be zero: that is
// what encodeTo writes, and anything else is corruption.
func decodeDict(d *relation.Decoder, nb, nNodes int) (dict, error) {
	t := emptyDict(nb)
	nv := d.Count(2) // an entry count and one id at least
	n := d.Count(1)
	if err := d.Err(); err != nil {
		return dict{}, err
	}
	t.vals = make([]uint64, nv*nb)
	t.off = make([]int32, nv+1)
	t.ids = make([]int32, n)
	t.bits = make([]byte, n)
	e := 0
	for v := 0; v < nv; v++ {
		w := t.valWords(v)
		k := 0
		if v > 0 {
			prev := t.valWords(v - 1)
			k64, delta := d.Uint(), d.Uint()
			if err := d.Err(); err != nil {
				return dict{}, err
			}
			if k64 >= uint64(nb) || delta == 0 || prev[k64]+delta < prev[k64] {
				return dict{}, fmt.Errorf("primitive: snapshot dictionary valuation %d is not above its predecessor", v)
			}
			k = int(k64)
			copy(w, prev[:k])
			w[k] = prev[k] + delta
			k++
		}
		for j := k; j < nb; j++ {
			w[j] = d.Uint()
		}
		c := d.Uint()
		if err := d.Err(); err != nil {
			return dict{}, err
		}
		if c == 0 {
			return dict{}, fmt.Errorf("primitive: snapshot dictionary valuation %d has no entries", v)
		}
		if c > uint64(n-e) {
			return dict{}, fmt.Errorf("primitive: snapshot dictionary valuation %d overruns the %d entries", v, n)
		}
		for j, last := 0, uint64(0); j < int(c); j++ {
			x := d.Uint()
			if err := d.Err(); err != nil {
				return dict{}, err
			}
			if j > 0 && x == 0 {
				return dict{}, fmt.Errorf("primitive: snapshot dictionary ids of valuation %d are not increasing", v)
			}
			if x >= uint64(nNodes)-last {
				return dict{}, fmt.Errorf("primitive: snapshot dictionary entry %d names a node beyond %d", e, nNodes)
			}
			last += x
			t.ids[e] = int32(last)
			e++
		}
		t.off[v+1] = int32(e)
	}
	if e != n {
		return dict{}, fmt.Errorf("primitive: snapshot dictionary holds %d entries, header says %d", e, n)
	}
	packed := d.Raw((n + 7) / 8)
	if err := d.Err(); err != nil {
		return dict{}, err
	}
	for i := range t.bits {
		t.bits[i] = packed[i>>3] >> (i & 7) & 1
	}
	if n%8 != 0 && packed[len(packed)-1]>>(n%8) != 0 {
		return dict{}, fmt.Errorf("primitive: snapshot dictionary bitmap has padding bits set")
	}
	t.live = n
	t.index()
	return t, nil
}
