// Package join is the evaluation engine underneath the compressed
// representations: it binds a normalized adorned view to sorted indexes,
// provides O~(1) counting of box-restricted relations (|R_F ⋉ B| and
// |R_F(v) ⋉ B|, Section 4.2), and implements a worst-case-optimal
// leapfrog-style join enumerator that emits free-variable valuations in
// lexicographic order restricted to a canonical f-box.
//
// The enumerator doubles as the paper's "evaluate from scratch" baseline
// and as the NPRR-style subroutine used when the Theorem-1 structure
// reaches a light (⊥) node.
package join

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"cqrep/internal/cq"
	"cqrep/internal/interval"
	"cqrep/internal/relation"
)

// AtomInfo is the per-atom access metadata of an Instance.
type AtomInfo struct {
	Rel  *relation.Relation
	Vars []int

	// BoundCols lists the relation columns holding bound variables, ordered
	// by the view's global bound order; BoundPos[i] is the position in the
	// view's Bound list of BoundCols[i] (used to slice access-request
	// valuations).
	BoundCols []int
	BoundPos  []int

	// FreeCols lists the relation columns holding free variables, ordered
	// by the global lexicographic f-order; FreePos[i] is the global free
	// position (0..µ-1) of FreeCols[i]. FreePos is strictly increasing.
	FreeCols []int
	FreePos  []int

	// BoundFirst orders rows by bound columns then free columns; FreeFirst
	// (built on first read) orders by free columns then bound columns.
	// Prefix counting against a canonical box therefore reduces to binary
	// searches on either index.
	BoundFirst *relation.Index

	freeOnce  sync.Once
	freeFirst *relation.Index
}

// FreeFirst returns the atom's index ordered by its free columns (in
// f-order) then its bound columns, sorting it on the first call; later and
// concurrent callers get the same index. A build that reads only
// BoundFirst — a materialized output over a covering atom — never sorts it.
func (a *AtomInfo) FreeFirst() *relation.Index {
	a.freeOnce.Do(func() {
		a.freeFirst = a.Rel.Index(append(append([]int(nil), a.FreeCols...), a.BoundCols...)...)
	})
	return a.freeFirst
}

// Instance binds a normalized view to a database: per-atom index structures
// and per-variable active domains. NewInstance builds each atom's
// BoundFirst index; every FreeFirst index and the active domains are
// completed lazily, on first read, once each, so an instance is safe for
// concurrent readers and a build pays only for what it reads (Leapfrog
// Triejoin likewise keeps an index per variable order a join walks).
// Complete builds the rest at once.
//
// A lazily built index reads its relation when it is built, so the
// relations an instance holds must not be mutated after NewInstance: a
// Maintained view clones its database before it applies a batch, and
// Relation.Clone shares no slab that is then written in place.
type Instance struct {
	NV *cq.NormalizedView
	// Mu is the number of free variables.
	Mu    int
	Atoms []*AtomInfo

	// request is the variable order of an access request: the bound
	// valuation pinned, then the free positions, over BoundFirst.
	request *order

	ordersOnce sync.Once
	// components holds the candidate order of each connected component
	// of E_Vb, and exhaustive the exhaustive stream's order; both are
	// built on the first candidate stream (candidates.go).
	components []*order
	exhaustive *order

	domOnce sync.Once
	// freeDomains[d] is the sorted active domain of the free variable at
	// global free position d (union over atoms containing it);
	// boundDomains[i] that of the bound variable at global bound position
	// i. Both are built together on the first read of either.
	freeDomains  [][]relation.Value
	boundDomains [][]relation.Value
}

// NewInstance binds the normalized view's atoms to their relations and
// builds each atom's BoundFirst index; FreeFirst and the active domains
// wait for their first read.
func NewInstance(nv *cq.NormalizedView) (*Instance, error) {
	inst := &Instance{NV: nv, Mu: len(nv.Free)}

	freePosOf := make(map[int]int)  // var id -> global free position
	boundPosOf := make(map[int]int) // var id -> global bound position
	for d, id := range nv.Free {
		freePosOf[id] = d
	}
	for i, id := range nv.Bound {
		boundPosOf[id] = i
	}

	for _, na := range nv.Atoms {
		a := &AtomInfo{Rel: na.Rel, Vars: na.Vars}
		// Collect (global position, column) pairs, then sort by global
		// position so index prefixes line up with the enumeration order.
		type pc struct{ pos, col int }
		var bound, free []pc
		for col, id := range na.Vars {
			if d, ok := freePosOf[id]; ok {
				free = append(free, pc{d, col})
			} else if i, ok := boundPosOf[id]; ok {
				bound = append(bound, pc{i, col})
			} else {
				return nil, fmt.Errorf("join: atom %s variable id %d is neither free nor bound", na.Rel.Name(), id)
			}
		}
		sort.Slice(bound, func(i, j int) bool { return bound[i].pos < bound[j].pos })
		sort.Slice(free, func(i, j int) bool { return free[i].pos < free[j].pos })
		for _, p := range bound {
			a.BoundCols = append(a.BoundCols, p.col)
			a.BoundPos = append(a.BoundPos, p.pos)
		}
		for _, p := range free {
			a.FreeCols = append(a.FreeCols, p.col)
			a.FreePos = append(a.FreePos, p.pos)
		}
		a.BoundFirst = na.Rel.Index(append(append([]int(nil), a.BoundCols...), a.FreeCols...)...)
		inst.Atoms = append(inst.Atoms, a)
	}

	// Every head variable needs an atom to walk it. cq.View.Validate
	// rejects a view without one, but a view built by hand skips it.
	for p := 0; p < inst.Mu+len(nv.Bound); p++ {
		id := inst.varAt(p)
		if !slices.ContainsFunc(inst.Atoms, func(a *AtomInfo) bool { return slices.Contains(a.Vars, id) }) {
			return nil, fmt.Errorf("join: head variable id %d appears in no atom", id)
		}
	}
	all := make([]int, len(inst.Atoms))
	for ai := range all {
		all[ai] = ai
	}
	inst.request = newOrder(inst, all, 0, inst.Mu, boundFirst, true)
	return inst, nil
}

// varAt returns the variable id at head position p: the free positions
// 0..µ-1 in f-order, then the bound positions µ+i in bound order.
func (inst *Instance) varAt(p int) int {
	if p < inst.Mu {
		return inst.NV.Free[p]
	}
	return inst.NV.Bound[p-inst.Mu]
}

// FreeDomain returns the sorted active domain of the free variable at
// global free position d, building every domain on the first call.
func (inst *Instance) FreeDomain(d int) []relation.Value {
	inst.domOnce.Do(inst.buildDomains)
	return inst.freeDomains[d]
}

// BoundDomain returns the sorted active domain of the bound variable at
// global bound position i, building every domain on the first call.
func (inst *Instance) BoundDomain(i int) []relation.Value {
	inst.domOnce.Do(inst.buildDomains)
	return inst.boundDomains[i]
}

// Complete builds every lazily built part of the instance now: each atom's
// FreeFirst index and the active domains. Backends whose requests read
// the instance call it before they serve, so no request pays for a sort.
func (inst *Instance) Complete() {
	for _, a := range inst.Atoms {
		a.FreeFirst()
	}
	inst.domOnce.Do(inst.buildDomains)
}

// LazyBuiltForTest reports whether any FreeFirst index or the active
// domains of inst have been built. It is a test hook: serving never calls
// it, and its answer is only stable once every reader of inst is done.
func LazyBuiltForTest(inst *Instance) bool {
	for _, a := range inst.Atoms {
		if a.freeFirst != nil {
			return true
		}
	}
	return inst.freeDomains != nil
}

func (inst *Instance) buildDomains() {
	free := make([][]relation.Value, inst.Mu)
	for d := range free {
		free[d] = inst.domainOf(d)
	}
	bound := make([][]relation.Value, len(inst.NV.Bound))
	for i := range bound {
		bound[i] = inst.domainOf(inst.Mu + i)
	}
	inst.freeDomains, inst.boundDomains = free, bound
}

// domainOf computes the sorted distinct values of the variable at head
// position p across all atoms containing it: the union of each holder's
// column domain.
func (inst *Instance) domainOf(p int) []relation.Value {
	var doms [][]relation.Value
	for _, a := range inst.Atoms {
		if col := slices.Index(a.Vars, inst.varAt(p)); col >= 0 {
			doms = append(doms, a.columnDomain(col))
		}
	}
	if len(doms) == 1 {
		return doms[0]
	}
	return sortedDistinct(slices.Concat(doms...))
}

// columnDomain returns the sorted distinct values of the atom's column col.
// The rows are stored in lexicographic order and each index lists them in
// its own, so when col is column 0 or an index's leading column the values
// already come in order: one pass counts the distinct ones, a second
// copies them. Any other column is gathered and sorted.
func (a *AtomInfo) columnDomain(col int) []relation.Value {
	rel, n := a.Rel, a.Rel.Len()
	at := func(i int) relation.Value { return rel.Row(i)[col] }
	switch col {
	case 0:
	case a.BoundFirst.Columns()[0]:
		at = func(i int) relation.Value { return a.BoundFirst.ValueAt(i, 0) }
	case a.freeLead():
		ff := a.FreeFirst()
		at = func(i int) relation.Value { return ff.ValueAt(i, 0) }
	default:
		vals := make([]relation.Value, n)
		for i := range vals {
			vals[i] = at(i)
		}
		return sortedDistinct(vals)
	}
	distinct := 0
	for i := 0; i < n; i++ {
		if i == 0 || at(i) != at(i-1) {
			distinct++
		}
	}
	out := make([]relation.Value, 0, distinct)
	for i := 0; i < n; i++ {
		if v := at(i); i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// freeLead is the leading column of the FreeFirst order, known without
// building the index.
func (a *AtomInfo) freeLead() int {
	if len(a.FreeCols) > 0 {
		return a.FreeCols[0]
	}
	return a.BoundCols[0]
}

// sortedDistinct sorts vals in place and returns its distinct values in an
// exactly sized copy, so a domain pins no larger array for the life of the
// instance.
func sortedDistinct(vals []relation.Value) []relation.Value {
	slices.Sort(vals)
	vals = slices.Compact(vals)
	return append(make([]relation.Value, 0, len(vals)), vals...)
}

// boundRange returns the position range of the atom's BoundFirst index
// whose bound columns equal the global bound valuation vb.
func (a *AtomInfo) boundRange(vb relation.Tuple) (int, int) {
	lo, hi := 0, a.BoundFirst.Len()
	for i, pos := range a.BoundPos {
		if lo, hi = a.BoundFirst.ValueRange(lo, hi, i, vb[pos]); lo >= hi {
			break
		}
	}
	return lo, hi
}

// boxRange narrows [lo, hi) of ix — an index whose order columns from
// depth on are the atom's free columns in f-order, constant on the columns
// before depth — to the rows compatible with the canonical box: the box's
// pinned values on the leading free columns, then its range on the next
// one when the atom contains that variable.
func (a *AtomInfo) boxRange(ix *relation.Index, lo, hi, depth int, b interval.Box) (int, int) {
	p := len(b.Prefix)
	k := 0
	for ; k < len(a.FreePos) && a.FreePos[k] < p; k++ {
		if lo, hi = ix.ValueRange(lo, hi, depth+k, b.Prefix[a.FreePos[k]]); lo >= hi {
			return lo, hi
		}
	}
	if b.HasRange && k < len(a.FreePos) && a.FreePos[k] == p {
		return ix.IntervalRange(lo, hi, depth+k, b.Lo, b.LoInc, b.Hi, b.HiInc)
	}
	return lo, hi
}

// CountBox returns |R_F ⋉ B| for the atom at index ai: the number of rows
// whose free columns are compatible with the canonical box.
func (inst *Instance) CountBox(ai int, b interval.Box) int {
	a := inst.Atoms[ai]
	ff := a.FreeFirst()
	lo, hi := a.boxRange(ff, 0, ff.Len(), 0, b)
	return hi - lo
}

// CountBoxBound returns |R_F(v_b) ⋉ B|: rows matching both the bound
// valuation and the box.
func (inst *Instance) CountBoxBound(ai int, vb relation.Tuple, b interval.Box) int {
	a := inst.Atoms[ai]
	lo, hi := a.boundRange(vb)
	if lo >= hi {
		return 0
	}
	lo, hi = a.boxRange(a.BoundFirst, lo, hi, len(a.BoundPos), b)
	return hi - lo
}

// CheckAllBoundAtoms verifies the atoms whose variables are all bound: each
// must contain the row named by vb. These atoms gate every access request
// but do not participate in free-variable enumeration.
func (inst *Instance) CheckAllBoundAtoms(vb relation.Tuple) bool {
	for _, a := range inst.Atoms {
		if len(a.FreeCols) > 0 {
			continue
		}
		if lo, hi := a.boundRange(vb); lo >= hi {
			return false
		}
	}
	return true
}
