package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is a named, fixed-arity set of tuples. Insertion order is not
// semantically meaningful: the structures built on top always access tuples
// through sorted indexes (see Index). Relations follow set semantics, as in
// the paper; duplicate inserts are ignored at Build time.
//
// A quiescent relation (no Insert/Delete in flight) is safe for concurrent
// readers: the deduplication fast path is an atomic load, and indexes are
// immutable once built. Mutations must be externally serialized against
// readers — the core package's Maintained does this by cloning before it
// applies a batch.
//
// The rows live back to back in one value slab, stride arity, so a row
// costs its values and nothing else. A slab is never written below its
// length once a row of it has been handed out: Insert appends past the
// length, Delete and dedupe build a fresh slab, and Clone, Renamed and
// every Index share the slab capped to its length. A row handed out by Row
// or an Index therefore keeps its values for good.
type Relation struct {
	name  string
	arity int
	vals  []Value // n rows of arity values each
	n     int     // row count; the slab alone cannot tell it at arity 0

	mu      sync.Mutex
	deduped atomic.Bool
	indexes map[string]*Index
}

// NewRelation creates an empty relation with the given name and arity.
// Arity zero is permitted (a nullary relation holds at most one empty tuple,
// representing a boolean fact).
func NewRelation(name string, arity int) *Relation {
	if arity < 0 {
		panic("relation: negative arity")
	}
	return &Relation{name: name, arity: arity, indexes: make(map[string]*Index)}
}

// FromTuples builds a relation from the given tuples, deduplicating them.
func FromTuples(name string, arity int, tuples []Tuple) (*Relation, error) {
	r := NewRelation(name, arity)
	for _, t := range tuples {
		if err := r.Insert(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of distinct tuples.
func (r *Relation) Len() int {
	r.dedupe()
	return r.n
}

// Row returns the i-th stored tuple, a capped view of the slab. The
// returned tuple must not be modified. Row indices are stable only between
// mutations; the tuple's values are stable for good.
func (r *Relation) Row(i int) Tuple { return RowAt(r.vals, r.arity, i) }

// RowAt returns row i of a slab of stride-arity rows as a sub-slice capped
// to the row, so appending to it never reaches the next row. Arity zero
// yields the empty (non-nil) tuple.
func RowAt(slab []Value, arity, i int) Tuple {
	if arity == 0 {
		return Tuple{}
	}
	lo := i * arity
	return Tuple(slab[lo : lo+arity : lo+arity])
}

// compareRows orders rows i and j of a stride-arity slab lexicographically.
func compareRows(slab []Value, arity, i, j int) int {
	return slices.Compare(slab[i*arity:i*arity+arity], slab[j*arity:j*arity+arity])
}

// Insert adds a tuple. It returns an error when the arity does not match or
// the tuple contains a reserved sentinel value. Inserting after indexes have
// been built invalidates them (they are rebuilt lazily).
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.arity {
		return fmt.Errorf("relation %s: inserting arity-%d tuple into arity-%d relation", r.name, len(t), r.arity)
	}
	for _, v := range t {
		if v == NegInf || v == PosInf {
			return fmt.Errorf("relation %s: tuple %v contains reserved sentinel value", r.name, t)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vals = append(r.vals, t...)
	r.n++
	r.deduped.Store(false)
	// Any previously built index is now stale.
	r.indexes = make(map[string]*Index)
	return nil
}

// Delete removes a tuple if present, reporting whether it was found.
// Like Insert, it invalidates any built indexes.
func (r *Relation) Delete(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	r.dedupe()
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.search(t)
	if !ok {
		return false
	}
	lo, hi := i*r.arity, (i+1)*r.arity
	vals := make([]Value, 0, len(r.vals)-r.arity)
	r.vals = append(append(vals, r.vals[:lo]...), r.vals[hi:]...)
	r.n--
	r.indexes = make(map[string]*Index)
	return true
}

// search returns the position of the first row not below t in the sorted
// row set, and whether that row is t.
func (r *Relation) search(t Tuple) (int, bool) {
	i := sort.Search(r.n, func(i int) bool { return !r.Row(i).Less(t) })
	return i, i < r.n && r.Row(i).Equal(t)
}

// MustInsert is Insert that panics on error; it is a convenience for tests
// and generators that construct tuples programmatically.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// dedupe sorts rows lexicographically and removes duplicates. All read paths
// call it first, so the relation behaves as a set. The atomic fast path
// keeps concurrent readers off the mutex once the relation is quiescent
// (the Store below happens-before any Load that observes true, so readers
// also observe the sorted rows). Rows that are already strictly increasing
// in an exactly sized slab, as decoded ones are, stay where they are;
// otherwise it sorts a permutation and gathers the distinct rows into a
// fresh slab, leaving the old one intact for anything that still views it.
func (r *Relation) dedupe() {
	if r.deduped.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deduped.Load() {
		return
	}
	a := r.arity
	sorted := true
	for i := 1; i < r.n && sorted; i++ {
		sorted = compareRows(r.vals, a, i-1, i) < 0
	}
	if !sorted {
		perm := make([]int32, r.n)
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortFunc(perm, func(i, j int32) int { return compareRows(r.vals, a, int(i), int(j)) })
		vals := make([]Value, 0, len(r.vals))
		n := 0
		for k, p := range perm {
			if k > 0 && compareRows(r.vals, a, int(perm[k-1]), int(p)) == 0 {
				continue
			}
			vals = append(vals, r.Row(int(p))...)
			n++
		}
		r.vals, r.n = vals, n
	} else if cap(r.vals) > len(r.vals) {
		r.vals = slices.Clone(r.vals) // drop append's spare room
	}
	r.deduped.Store(true)
}

// Contains reports whether the relation holds the given tuple.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	r.dedupe()
	_, ok := r.search(t)
	return ok
}

// Tuples returns a copy of the tuple set in lexicographic order: capped
// views of one fresh slab, so the copy costs two allocations.
func (r *Relation) Tuples() []Tuple {
	r.dedupe()
	vals := slices.Clone(r.vals)
	out := make([]Tuple, r.n)
	for i := range out {
		out[i] = RowAt(vals, r.arity, i)
	}
	return out
}

// Project returns a new deduplicated relation holding the projection of r
// onto the given columns.
func (r *Relation) Project(name string, cols []int) *Relation {
	r.dedupe()
	p := NewRelation(name, len(cols))
	p.vals = make([]Value, 0, r.n*len(cols))
	for i := 0; i < r.n; i++ {
		t := r.Row(i)
		for _, c := range cols {
			p.vals = append(p.vals, t[c])
		}
	}
	p.n = r.n
	p.dedupe()
	return p
}

// Clone returns an independent copy of the relation sharing the slab,
// capped to its length: mutating the clone reallocates before it writes, so
// it never disturbs readers of the original. Indexes are not copied; the
// clone rebuilds them lazily.
func (r *Relation) Clone() *Relation { return r.Renamed(r.name) }

// SizeBytes is the in-memory footprint of the tuple payload: the slab, one
// machine word per value, plus its slice header. Index footprints are
// accounted separately by Index.SizeBytes.
func (r *Relation) SizeBytes() int {
	r.dedupe()
	const wordSize = 8
	return wordSize * (len(r.vals) + 3)
}

// String renders the relation for debugging: name, arity and cardinality.
func (r *Relation) String() string {
	return fmt.Sprintf("%s/%d[%d tuples]", r.name, r.arity, r.Len())
}

// Database is a named collection of relations.
type Database struct {
	rels map[string]*Relation
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{rels: make(map[string]*Relation)} }

// Add registers a relation, replacing any previous relation with the same
// name.
func (d *Database) Add(r *Relation) { d.rels[r.Name()] = r }

// Relation returns the named relation, or an error naming the missing table.
func (d *Database) Relation(name string) (*Relation, error) {
	r, ok := d.rels[name]
	if !ok {
		return nil, fmt.Errorf("relation: database has no relation named %q", name)
	}
	return r, nil
}

// Names returns the sorted relation names.
func (d *Database) Names() []string {
	names := make([]string, 0, len(d.rels))
	for n := range d.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone returns a database whose relations are independent copies (see
// Relation.Clone); it is the snapshot primitive behind build-aside
// rebuilds.
func (d *Database) Clone() *Database {
	out := NewDatabase()
	for _, r := range d.rels {
		out.Add(r.Clone())
	}
	return out
}

// Size returns the total number of tuples across all relations — the |D| of
// the paper's bounds.
func (d *Database) Size() int {
	total := 0
	for _, r := range d.rels {
		total += r.Len()
	}
	return total
}

// SizeBytes estimates the total tuple payload across relations.
func (d *Database) SizeBytes() int {
	total := 0
	for _, r := range d.rels {
		total += r.SizeBytes()
	}
	return total
}

// String lists the relations with their cardinalities.
func (d *Database) String() string {
	parts := make([]string, 0, len(d.rels))
	for _, n := range d.Names() {
		parts = append(parts, d.rels[n].String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
