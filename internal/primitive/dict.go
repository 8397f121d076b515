package primitive

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"

	"cqrep/internal/relation"
)

// dict is the heavy-pair dictionary of Appendix A as one flat, pointer-free
// table, so the garbage collector never scans it and a probe allocates
// nothing.
//
// Entry e's key is keys[e*stride : (e+1)*stride]: the tree node id, then
// the bound valuation, each value as its uint64 bit pattern. Entries are
// sorted by key with the words compared as unsigned integers — exactly the
// byte order of the snapshot's big-endian key encoding, so EncodeTo writes
// them in place. bits[e] is the entry's bit, or absent for an entry that
// DeltaRebase invalidated: the key stays, because keys and slots are shared
// copy-on-write between a structure and its rebases, but the pair reads ⊥.
//
// slots is an open-addressing index over the entries (−1 marks a free
// slot, at most half the slots are used), probed linearly from a seeded
// hash of the key and confirmed against the full key.
type dict struct {
	stride int
	keys   []uint64
	bits   []byte
	slots  []int32
	seed   uint64
	live   int // entries whose bit is not absent
}

// absent marks an invalidated entry in dict.bits.
const absent byte = 0xff

// emptyDict returns a dictionary with no entries for nb bound variables.
func emptyDict(nb int) dict { return dict{stride: 1 + nb} }

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

// joinDict concatenates the per-node entries in node id order, each node's
// sorted by valuation, which is the table's key order, and indexes them.
func joinDict(nb int, perNode []nodeEntries) dict {
	t := emptyDict(nb)
	n := 0
	for _, ne := range perNode {
		n += len(ne.bits)
	}
	t.keys = make([]uint64, 0, n*t.stride)
	t.bits = make([]byte, 0, n)
	order := []int32(nil)
	for id, ne := range perNode {
		order = order[:0]
		for i := range ne.bits {
			order = append(order, int32(i))
		}
		slices.SortFunc(order, func(a, b int32) int {
			return compareWords(ne.vbs[int(a)*nb:int(a+1)*nb], ne.vbs[int(b)*nb:int(b+1)*nb])
		})
		for _, i := range order {
			t.keys = append(t.keys, uint64(id))
			t.keys = append(t.keys, ne.vbs[int(i)*nb:int(i+1)*nb]...)
			t.bits = append(t.bits, ne.bits[i])
		}
	}
	t.live = n
	t.index()
	return t
}

// compareWords orders two keys word by word as unsigned integers.
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

// index builds the slot index over keys under a fresh seed.
func (t *dict) index() {
	n := len(t.bits)
	if n == 0 {
		t.slots = nil
		return
	}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	t.seed = rand.Uint64()
	t.slots = make([]int32, size)
	for i := range t.slots {
		t.slots[i] = -1
	}
	mask := uint64(size - 1)
	for e := 0; e < n; e++ {
		key := t.keys[e*t.stride : (e+1)*t.stride]
		i := hashKey(t.seed, int32(key[0]), key[1:]) & mask
		for t.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(e)
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

// hashKey hashes a (node, valuation) key under seed. The valuation is a
// probe's relation.Tuple or a stored key's words; both hash alike.
func hashKey[V ~int64 | ~uint64](seed uint64, id int32, vb []V) uint64 {
	h := mix(seed ^ uint64(uint32(id)))
	for _, v := range vb {
		h = mix(h ^ uint64(v))
	}
	return h
}

// find returns the entry index of (id, vb), absent entries included, or
// −1 when the table has no such key.
func (t *dict) find(id int32, vb relation.Tuple) int {
	if len(t.slots) == 0 || len(vb) != t.stride-1 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashKey(t.seed, id, vb) & mask; ; i = (i + 1) & mask {
		e := int(t.slots[i])
		if e < 0 {
			return -1
		}
		key := t.keys[e*t.stride : (e+1)*t.stride]
		if key[0] != uint64(uint32(id)) {
			continue
		}
		match := true
		for k, v := range vb {
			if key[1+k] != uint64(v) {
				match = false
				break
			}
		}
		if match {
			return e
		}
	}
}

// lookup returns the dictionary entry for (id, vb): 0, 1, or ⊥ (ok ==
// false) when the pair is not heavy.
func (t *dict) lookup(id int32, vb relation.Tuple) (byte, bool) {
	e := t.find(id, vb)
	if e < 0 || t.bits[e] == absent {
		return 0, false
	}
	return t.bits[e], true
}

// entry returns entry e's node id and a fresh copy of its valuation.
func (t *dict) entry(e int) (int32, relation.Tuple) {
	key := t.keys[e*t.stride : (e+1)*t.stride]
	vb := make(relation.Tuple, len(key)-1)
	for k, w := range key[1:] {
		vb[k] = relation.Value(w)
	}
	return int32(key[0]), vb
}

// keyBytes is the snapshot encoding of a key: the node id as 4 big-endian
// bytes, then each valuation value as 8.
func (t *dict) keyBytes(dst []byte, e int) []byte {
	key := t.keys[e*t.stride : (e+1)*t.stride]
	dst = binary.BigEndian.AppendUint32(dst, uint32(key[0]))
	for _, w := range key[1:] {
		dst = binary.BigEndian.AppendUint64(dst, w)
	}
	return dst
}

// encodeTo writes the live entries in key order: count, then per entry the
// key bytes and the bit.
func (t *dict) encodeTo(e *relation.Encoder) {
	e.Uint(uint64(t.live))
	buf := make([]byte, 0, 4+8*(t.stride-1)+1)
	for i, bit := range t.bits {
		if bit == absent {
			continue
		}
		buf = append(t.keyBytes(buf[:0], i), bit)
		e.Raw(buf)
	}
}

// decodeDict reads a dictionary written by encodeTo for a tree of nNodes
// nodes and nb bound variables. Keys must be strictly increasing — the
// order encodeTo writes — and name an existing node; anything else is
// corruption, not a dictionary this code wrote.
func decodeDict(d *relation.Decoder, nb, nNodes int) (dict, error) {
	t := emptyDict(nb)
	keyLen := 4 + 8*nb
	n := d.Count(keyLen + 1)
	if err := d.Err(); err != nil {
		return dict{}, err
	}
	t.keys = make([]uint64, n*t.stride)
	t.bits = make([]byte, n)
	for e := 0; e < n; e++ {
		raw := d.Raw(keyLen)
		bit := d.Byte()
		if err := d.Err(); err != nil {
			return dict{}, err
		}
		if bit > 1 {
			return dict{}, fmt.Errorf("primitive: snapshot dictionary bit %#x at entry %d", bit, e)
		}
		key := t.keys[e*t.stride : (e+1)*t.stride]
		key[0] = uint64(binary.BigEndian.Uint32(raw))
		for k := 1; k < t.stride; k++ {
			key[k] = binary.BigEndian.Uint64(raw[4+8*(k-1):])
		}
		if key[0] >= uint64(nNodes) {
			return dict{}, fmt.Errorf("primitive: snapshot dictionary entry %d names node %d of %d", e, key[0], nNodes)
		}
		if e > 0 && compareWords(t.keys[(e-1)*t.stride:e*t.stride], key) >= 0 {
			return dict{}, fmt.Errorf("primitive: snapshot dictionary key %d is not above its predecessor", e)
		}
		t.bits[e] = bit
	}
	t.live = n
	t.index()
	return t, nil
}
