package relation_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cqrep/internal/baseline"
	"cqrep/internal/cq"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// FuzzRelationSlab drives a byte-chosen sequence of Insert, Delete, Clone,
// Renamed, PartitionByColumns, FilterShard, Project and Index over one
// arity in 0..3, each relation checked after every step against a
// sorted-set oracle. It pins the slab invariants: a row once handed out —
// by Row, by Index.Tuple, or lent in a materialized bucket's NextBlock —
// keeps its values for good; mutating a clone, alias, partition or
// projection never changes its source; an index stays consistent with
// the rows it was built over after its relation mutates; arity-0 rows are
// the empty, non-nil tuple.
func FuzzRelationSlab(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 0, 3, 1, 2, 2, 0, 4, 4, 7, 0, 5, 1, 1, 0, 6, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 1, 0, 7, 0, 8, 0, 0})
	f.Add([]byte{1, 0, 5, 0, 3, 0, 1, 9, 0, 4, 2, 2, 8, 1, 1, 5, 0, 7, 1})
	f.Add([]byte{3, 0, 1, 2, 3, 0, 3, 2, 1, 9, 0, 5, 2, 7, 2, 1, 0, 4, 4, 4, 3, 0, 6, 6, 1, 2, 3, 8, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		s := newSlabState(int(data[0]) % 4)
		in := data[1:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b
		}
		for step := 0; len(in) > 0; step++ {
			s.apply(t, next)
			s.check(t, step)
		}
	})
}

// slabEntry is one live relation and the set it must hold.
type slabEntry struct {
	rel    *relation.Relation
	oracle map[string]relation.Tuple
}

// witness is a row handed out earlier and the values it held then.
type witness struct {
	row  relation.Tuple
	want relation.Tuple
	from string
}

// staleIndex is an index and the rows, in its order, it was built over.
type staleIndex struct {
	ix   *relation.Index
	rows []relation.Tuple
}

type slabState struct {
	arity   int
	rels    []*slabEntry
	seen    []witness
	indexes []staleIndex
	lenders []*baseline.SliceIter
}

const (
	maxSlabRels      = 8
	maxSlabWitnesses = 256
	slabDomain       = 6
)

func newSlabState(arity int) *slabState {
	return &slabState{arity: arity, rels: []*slabEntry{{rel: relation.NewRelation("R", arity), oracle: map[string]relation.Tuple{}}}}
}

func (s *slabState) add(e *slabEntry) {
	if len(s.rels) < maxSlabRels {
		s.rels = append(s.rels, e)
	} else {
		s.rels[len(s.rels)-1] = e
	}
}

func (s *slabState) keep(row relation.Tuple, from string) {
	if len(s.seen) < maxSlabWitnesses {
		s.seen = append(s.seen, witness{row: row, want: row.Clone(), from: from})
	}
}

func (s *slabState) tuple(next func() int, arity int) relation.Tuple {
	t := make(relation.Tuple, arity)
	for i := range t {
		t[i] = relation.Value(next() % slabDomain)
	}
	return t
}

// cols draws a duplicate-free column list over the arity.
func (s *slabState) cols(next func() int) []int {
	perm := []int{0, 1, 2}[:s.arity]
	b := next()
	for i := len(perm) - 1; i > 0; i-- {
		j := (b >> i) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if s.arity == 0 {
		return nil
	}
	return perm[:1+b%s.arity]
}

func cloneOracle(o map[string]relation.Tuple, keep func(relation.Tuple) bool) map[string]relation.Tuple {
	out := make(map[string]relation.Tuple, len(o))
	for k, t := range o {
		if keep == nil || keep(t) {
			out[k] = t
		}
	}
	return out
}

func key(t relation.Tuple) string { return string(t.AppendEncode(nil)) }

func (s *slabState) apply(t *testing.T, next func() int) {
	op, e := next()%10, s.rels[next()%len(s.rels)]
	switch op {
	case 0, 1: // inserts outnumber the rest, so relations grow
		tup := s.tuple(next, s.arity)
		if err := e.rel.Insert(tup); err != nil {
			t.Fatal(err)
		}
		e.oracle[key(tup)] = tup.Clone()
	case 2:
		tup := s.tuple(next, s.arity)
		_, want := e.oracle[key(tup)]
		if got := e.rel.Delete(tup); got != want {
			t.Fatalf("Delete(%v) = %v, oracle holds it: %v", tup, got, want)
		}
		delete(e.oracle, key(tup))
	case 3:
		s.add(&slabEntry{rel: e.rel.Clone(), oracle: cloneOracle(e.oracle, nil)})
	case 4:
		s.add(&slabEntry{rel: e.rel.Renamed("A"), oracle: cloneOracle(e.oracle, nil)})
	case 5:
		cols, n := s.cols(next), 1+next()%3
		for sh, p := range e.rel.PartitionByColumns("P", cols, n) {
			s.add(&slabEntry{rel: p, oracle: cloneOracle(e.oracle, func(u relation.Tuple) bool { return relation.TupleShard(u, cols, n) == sh })})
		}
	case 6:
		cols, n := s.cols(next), 1+next()%3
		sh := next() % n
		s.add(&slabEntry{rel: e.rel.FilterShard("F", cols, sh, n), oracle: cloneOracle(e.oracle, func(u relation.Tuple) bool { return relation.TupleShard(u, cols, n) == sh })})
	case 7:
		// Projections change the arity; one onto the same columns in
		// another order keeps the state's arity.
		cols := s.cols(next)
		for len(cols) < s.arity {
			cols = append(cols, missing(cols, s.arity))
		}
		p := &slabEntry{rel: e.rel.Project("Q", cols), oracle: map[string]relation.Tuple{}}
		for _, u := range e.oracle {
			v := u.Project(cols)
			p.oracle[key(v)] = v
		}
		s.add(p)
	case 8:
		cols := s.cols(next)
		ix := e.rel.Index(cols...)
		rows := sortedBy(e.oracle, ix.Columns())
		if ix.Len() != len(rows) {
			t.Fatalf("index over %v holds %d rows, oracle %d", cols, ix.Len(), len(rows))
		}
		for pos := range rows {
			s.keep(ix.Tuple(pos), "Index.Tuple")
		}
		s.indexes = append(s.indexes, staleIndex{ix: ix, rows: rows})
	case 9:
		if e.rel.Len() > 0 {
			s.keep(e.rel.Row(next()%e.rel.Len()), "Row")
		}
		s.lend(t, e, next)
	}
}

// missing returns the first column below arity not in cols.
func missing(cols []int, arity int) int {
	for c := 0; c < arity; c++ {
		if !slices.Contains(cols, c) {
			return c
		}
	}
	return -1
}

// lend materializes e as an all-free view and keeps one lent block of its
// bucket, then advances every earlier lender by a block, so lent tuples
// are checked across later NextBlock calls and later mutations.
func (s *slabState) lend(t *testing.T, e *slabEntry, next func() int) {
	for _, it := range s.lenders {
		for _, row := range it.NextBlock(1 + next()%4) {
			s.keep(row, "NextBlock")
		}
	}
	if s.arity == 0 || len(s.lenders) >= 4 {
		return // the query language has no nullary atoms
	}
	vars := []string{"a", "b", "c"}[:s.arity]
	view := cq.MustParse(fmt.Sprintf("V(%[1]s) :- R(%[1]s)", strings.Join(vars, ", ")))
	db := relation.NewDatabase()
	db.Add(e.rel.Renamed("R"))
	nv, err := cq.Normalize(view, db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	m, err := baseline.Materialize(inst)
	if err != nil {
		t.Fatal(err)
	}
	it := m.Query(relation.Tuple{})
	for _, row := range it.NextBlock(1 + next()%4) {
		s.keep(row, "NextBlock")
	}
	s.lenders = append(s.lenders, it)
}

// sortedBy lists the oracle's rows ordered by the given full column order.
func sortedBy(o map[string]relation.Tuple, cols []int) []relation.Tuple {
	rows := make([]relation.Tuple, 0, len(o))
	for _, u := range o {
		rows = append(rows, u)
	}
	slices.SortFunc(rows, func(a, b relation.Tuple) int {
		for _, c := range cols {
			if a[c] != b[c] {
				if a[c] < b[c] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	return rows
}

func (s *slabState) check(t *testing.T, step int) {
	for i, e := range s.rels {
		want := sortedBy(e.oracle, []int{0, 1, 2}[:e.rel.Arity()])
		if e.rel.Len() != len(want) {
			t.Fatalf("step %d: relation %d holds %d rows, oracle %d", step, i, e.rel.Len(), len(want))
		}
		for j, w := range want {
			got := e.rel.Row(j)
			if got == nil || !got.Equal(w) {
				t.Fatalf("step %d: relation %d row %d = %#v, oracle %v", step, i, j, got, w)
			}
		}
	}
	for _, w := range s.seen {
		if w.row == nil || !w.row.Equal(w.want) {
			t.Fatalf("step %d: a row from %s changed from %v to %#v", step, w.from, w.want, w.row)
		}
	}
	for _, si := range s.indexes {
		if si.ix.Len() != len(si.rows) {
			t.Fatalf("step %d: stale index holds %d rows, built over %d", step, si.ix.Len(), len(si.rows))
		}
		for pos, w := range si.rows {
			if got := si.ix.Tuple(pos); got == nil || !got.Equal(w) {
				t.Fatalf("step %d: stale index row %d = %#v, built over %v", step, pos, got, w)
			}
		}
	}
}
