package relation

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Index is a sorted access path over a relation: a permutation of the rows
// ordered lexicographically by a sequence of columns. All range and count
// operations used by the paper's cost estimators (|R_F ⋉ B|, |R_F(v) ⋉ B|)
// reduce to two binary searches over an Index, giving the O~(1) counting the
// construction of Theorem 1 relies on.
//
// An Index is immutable once built; Relation.Index caches one index per
// column signature. It captures the slab and arity it was built over, so a
// stale index stays self-consistent after its relation mutates, and a seek
// reads a value with one load through the permutation.
type Index struct {
	rel   *Relation
	vals  []Value
	arity int
	cols  []int
	perm  []int32
}

// Index returns the (cached) index of r ordered by the given columns.
// Columns not listed participate as tie-breakers in ascending column order,
// so the order is always total and deterministic.
func (r *Relation) Index(cols ...int) *Index {
	r.dedupe()
	sig := colSignature(cols)
	r.mu.Lock()
	if ix, ok := r.indexes[sig]; ok {
		r.mu.Unlock()
		return ix
	}
	r.mu.Unlock()

	full := make([]int, 0, r.arity)
	seen := make([]bool, r.arity)
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("relation %s: index column %d out of range [0,%d)", r.name, c, r.arity))
		}
		if seen[c] {
			panic(fmt.Sprintf("relation %s: duplicate index column %d", r.name, c))
		}
		seen[c] = true
		full = append(full, c)
	}
	for c := 0; c < r.arity; c++ {
		if !seen[c] {
			full = append(full, c)
		}
	}

	vals, a := r.vals[:len(r.vals):len(r.vals)], r.arity
	ix := &Index{rel: r, vals: vals, arity: a, cols: full, perm: make([]int32, r.n)}
	for i := range ix.perm {
		ix.perm[i] = int32(i)
	}
	// dedupe leaves the rows strictly increasing in column order 0..a-1,
	// so the index in that order is the identity and needs no sort.
	if !isIdentity(full) {
		slices.SortFunc(ix.perm, func(i, j int32) int {
			ri, rj := int(i)*a, int(j)*a
			for _, c := range full {
				if d := cmp.Compare(vals[ri+c], vals[rj+c]); d != 0 {
					return d
				}
			}
			return 0
		})
	}

	r.mu.Lock()
	r.indexes[sig] = ix
	r.mu.Unlock()
	return ix
}

// colSignature is the cache key of an index's requested columns: each
// column as a uvarint, so no two column lists share a key at any arity.
func colSignature(cols []int) string {
	b := make([]byte, 0, len(cols))
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return string(b)
}

// isIdentity reports whether the column order is 0, 1, ..., len-1.
func isIdentity(cols []int) bool {
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// Len returns the number of indexed rows.
func (ix *Index) Len() int { return len(ix.perm) }

// Relation returns the indexed relation.
func (ix *Index) Relation() *Relation { return ix.rel }

// Columns returns the full column order of the index (requested columns
// followed by tie-breakers).
func (ix *Index) Columns() []int { return ix.cols }

// Tuple returns the row stored at sorted position pos. The tuple must not be
// modified.
func (ix *Index) Tuple(pos int) Tuple { return RowAt(ix.vals, ix.arity, int(ix.perm[pos])) }

// ValueAt returns the value of the depth-th order column at sorted position
// pos. Depth indexes into the order columns, not the raw schema.
func (ix *Index) ValueAt(pos, depth int) Value {
	return ix.vals[int(ix.perm[pos])*ix.arity+ix.cols[depth]]
}

// Range returns the half-open position range [lo, hi) of rows whose first
// len(prefix) order columns equal prefix.
func (ix *Index) Range(prefix Tuple) (int, int) {
	return ix.SubRange(0, len(ix.perm), 0, prefix)
}

// SubRange narrows an existing position range [lo, hi), in which the first
// depth order columns are constant, to the rows whose next len(prefix) order
// columns equal prefix.
func (ix *Index) SubRange(lo, hi, depth int, prefix Tuple) (int, int) {
	for k, want := range prefix {
		d := depth + k
		lo, hi = ix.ValueRange(lo, hi, d, want)
		if lo >= hi {
			return lo, lo
		}
	}
	return lo, hi
}

// ValueRange returns the subrange of [lo, hi) where order column d equals
// want, assuming columns before d are constant on [lo, hi). It is the
// one-column step of SubRange, for callers that narrow column by column
// without building a prefix tuple.
func (ix *Index) ValueRange(lo, hi, d int, want Value) (int, int) {
	first := ix.SeekGE(lo, hi, d, want)
	return first, ix.SeekGT(first, hi, d, want)
}

// SeekGE returns the first position in [lo, hi) whose order column depth has
// value >= v, assuming columns before depth are constant on [lo, hi).
func (ix *Index) SeekGE(lo, hi, depth int, v Value) int {
	vals, perm, a, c := ix.vals, ix.perm, ix.arity, ix.cols[depth]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vals[int(perm[mid])*a+c] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SeekGT returns the first position in [lo, hi) whose order column depth has
// value > v, assuming columns before depth are constant on [lo, hi).
func (ix *Index) SeekGT(lo, hi, depth int, v Value) int {
	vals, perm, a, c := ix.vals, ix.perm, ix.arity, ix.cols[depth]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vals[int(perm[mid])*a+c] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// GallopGE returns SeekGE(lo, hi, depth, v), found by exponential search
// forward from lo: it probes lo, lo+1, lo+3, lo+7, … until a value >= v or
// hi, then binary-searches the last stride. An answer k positions past lo
// costs O(log k) probes, so a seek that resumes where the previous one
// ended pays for the distance it moves, not for the range.
func (ix *Index) GallopGE(lo, hi, depth int, v Value) int {
	vals, perm, a, c := ix.vals, ix.perm, ix.arity, ix.cols[depth]
	if lo >= hi || vals[int(perm[lo])*a+c] >= v {
		return lo
	}
	// vals at lo is below v; double the stride until a probe is not.
	for step := 1; ; step <<= 1 {
		probe := lo + step
		if probe >= hi {
			break
		}
		if vals[int(perm[probe])*a+c] >= v {
			hi = probe
			break
		}
		lo = probe
	}
	return ix.SeekGE(lo+1, hi, depth, v)
}

// GallopGT returns SeekGT(lo, hi, depth, v) by the exponential search of
// GallopGE: O(log k) probes for an answer k positions past lo, which is
// the length of v's run when lo is its first position.
func (ix *Index) GallopGT(lo, hi, depth int, v Value) int {
	vals, perm, a, c := ix.vals, ix.perm, ix.arity, ix.cols[depth]
	if lo >= hi || vals[int(perm[lo])*a+c] > v {
		return lo
	}
	for step := 1; ; step <<= 1 {
		probe := lo + step
		if probe >= hi {
			break
		}
		if vals[int(perm[probe])*a+c] > v {
			hi = probe
			break
		}
		lo = probe
	}
	return ix.SeekGT(lo+1, hi, depth, v)
}

// IntervalRange narrows [lo, hi) — constant on the first depth order columns
// — to the rows whose order column depth lies in the interval between a and
// b with the given inclusiveness. The sentinels NegInf/PosInf denote
// unbounded endpoints.
func (ix *Index) IntervalRange(lo, hi, depth int, a Value, aInc bool, b Value, bInc bool) (int, int) {
	var first int
	if aInc {
		first = ix.SeekGE(lo, hi, depth, a)
	} else {
		first = ix.SeekGT(lo, hi, depth, a)
	}
	var last int
	if bInc {
		last = ix.SeekGT(lo, hi, depth, b)
	} else {
		last = ix.SeekGE(lo, hi, depth, b)
	}
	if last < first {
		last = first
	}
	return first, last
}

// CountPrefix returns the number of rows whose leading order columns equal
// prefix.
func (ix *Index) CountPrefix(prefix Tuple) int {
	lo, hi := ix.Range(prefix)
	return hi - lo
}

// CountPrefixInterval returns the number of rows with the given prefix on
// the leading order columns and whose next order column lies in the interval
// between a and b with the given inclusiveness.
func (ix *Index) CountPrefixInterval(prefix Tuple, a Value, aInc bool, b Value, bInc bool) int {
	lo, hi := ix.Range(prefix)
	if lo >= hi {
		return 0
	}
	lo, hi = ix.IntervalRange(lo, hi, len(prefix), a, aInc, b, bInc)
	return hi - lo
}

// SizeBytes estimates the index footprint: 4 bytes per row for the
// permutation plus the column order slice.
func (ix *Index) SizeBytes() int {
	return 4*len(ix.perm) + 8*len(ix.cols)
}
