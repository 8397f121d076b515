package baseline

import (
	"fmt"
	"sort"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// codec.go (de)serializes the MaterializedView baseline for the snapshot
// subsystem: the bucketed output tuples are the expensive precomputed
// state (worst-case |D|^{ρ*}), so they are stored verbatim; DirectEval and
// AllBound carry no precomputed state and need no codec.

// EncodeTo appends the materialized view to e: buckets sorted by bound
// valuation key, each with its free tuples in lexicographic order, so
// identical materializations always serialize to identical bytes.
func (m *MaterializedView) EncodeTo(e *relation.Encoder) {
	e.Int(int64(m.elapsed))
	keys := make([]string, 0, len(m.buckets))
	for k := range m.buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uint(uint64(len(keys)))
	for _, k := range keys {
		e.Raw([]byte(k))
		b := m.buckets[k]
		e.Uint(uint64(b.n))
		e.Values(b.vals)
	}
}

// DecodeMaterialized reads a materialized view previously written by
// EncodeTo for the normalized view nv. It needs no join instance: bucket
// keys and tuple arities are fixed by the view's bound and free variable
// counts, so truncation and corruption fail decoding.
// Each bucket decodes into one slab. Buckets must arrive in the order
// EncodeTo writes them, keys and each bucket's tuples strictly increasing,
// so a decoded view serves every answer once and in order.
func DecodeMaterialized(d *relation.Decoder, nv *cq.NormalizedView) (*MaterializedView, error) {
	elapsed := time.Duration(d.Int())
	keyLen := 8 * len(nv.Bound)
	nBuckets := d.Count(keyLen + 1)
	if err := d.Err(); err != nil {
		return nil, err
	}
	mu := len(nv.Free)
	m := &MaterializedView{mu: mu, bound: len(nv.Bound), buckets: make(map[string]bucket, nBuckets), elapsed: elapsed}
	prev := ""
	for i := 0; i < nBuckets; i++ {
		key := string(d.Raw(keyLen))
		n := d.Count(8 * mu)
		if err := d.Err(); err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("baseline: snapshot bucket %d is empty", i)
		}
		if i > 0 && key <= prev {
			return nil, fmt.Errorf("baseline: snapshot bucket %d is out of order", i)
		}
		prev = key
		b := bucket{vals: d.Values(n * mu), n: n}
		if err := d.Err(); err != nil {
			return nil, err
		}
		for j := 1; j < n; j++ {
			if relation.RowAt(b.vals, mu, j-1).Compare(relation.RowAt(b.vals, mu, j)) >= 0 {
				return nil, fmt.Errorf("baseline: snapshot bucket %d repeats or disorders tuple %d", i, j)
			}
		}
		m.buckets[key] = b
		m.tuples += n
	}
	return m, nil
}
