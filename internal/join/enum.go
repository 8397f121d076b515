package join

import (
	"slices"

	"cqrep/internal/interval"
	"cqrep/internal/relation"
)

// Enum enumerates, in lexicographic order, the free-variable valuations of
// the join ⋈_F R_F(v_b) restricted to a canonical f-box. It is a pull-based
// iterator with O(µ · |atoms|) state, implementing a leapfrog-style
// worst-case-optimal backtracking search over sorted indexes.
//
// It is the package's one backtracking join. What it fixes, in what order
// and through which indexes is its variable order (order): a request
// pins the bound valuation and walks the free positions; the candidate
// streams walk an E_Vb component's free then bound positions, or the
// bound positions alone.
//
// One Enum serves any number of boxes under the same bound valuation:
// Reset restarts it on another box without allocating, and the per-atom
// position ranges of the bound valuation are sought once, on first use,
// and kept across resets.
//
// Seeks resume where the previous one ended. Once depth d is fixed to v,
// every later seek at depth d under the same prefix asks for a value
// above v, so it starts at the end of v's run in each atom and gallops
// forward from there (relation.Index.GallopGE); only the first seek at a
// depth after the prefix above it changed binary-searches the whole
// range. The positions found, and so the enumeration and Ops, are the
// same as a search from the range's start.
type Enum struct {
	o   *order
	vb  relation.Tuple
	box interval.Box

	// assignment[d] is the value fixed at dimension d of the order.
	assignment relation.Tuple
	// ranges[j][d] is the position range of walk j's index after fixing
	// the dimensions < d (and, under a pinning order, the bound
	// valuation). ranges[j][d+1] is the run of assignment[d] within
	// ranges[j][d] (the whole of it when walk j's atom does not hold
	// dimension d). Only ranges[·][0..fixed] describe the current
	// assignment; deeper ones are left over from an earlier prefix.
	ranges   [][]rng
	fixed    int  // ranges[·][d+1] is assignment[d]'s run for every d < fixed
	baseDone bool // ranges[·][0] hold the walks' starting ranges
	baseOK   bool // every walk's starting range is non-empty
	started  bool
	done     bool
	ops      uint64
}

type rng struct{ lo, hi int }

// order is a variable order of the join: the head positions an Enum fixes
// in turn, each a free position d < µ or a bound position µ+i, and the
// atoms it walks, each through one of its indexes.
type order struct {
	dims  []int
	free  int  // dims[:free] are free positions, dims[free:] bound ones
	pin   bool // the bound valuation is fixed first, on a BoundFirst prefix
	walks []walk
	// holders[d] lists the walks whose atom holds dims[d].
	holders [][]int
}

// walk is one atom of an order: its index, and depth[d], the index column
// holding dims[d], or -1 when the atom does not hold it.
type walk struct {
	atom  *AtomInfo
	ix    *relation.Index
	depth []int
}

// newOrder makes the order over the given atoms whose dimensions are the
// head positions in [from, to) that one of them holds, in turn, walking
// each atom through the index ix returns for it.
func newOrder(inst *Instance, atoms []int, from, to int, ix func(*AtomInfo) *relation.Index, pin bool) *order {
	o := &order{pin: pin, walks: make([]walk, len(atoms))}
	for j, ai := range atoms {
		o.walks[j] = walk{atom: inst.Atoms[ai], ix: ix(inst.Atoms[ai])}
	}
	for p := from; p < to; p++ {
		id := inst.varAt(p)
		if !slices.ContainsFunc(o.walks, func(w walk) bool { return slices.Contains(w.atom.Vars, id) }) {
			continue
		}
		var holders []int
		for j := range o.walks {
			w := &o.walks[j]
			// A column of -1 (the atom lacks the variable) is in no index.
			w.depth = append(w.depth, slices.Index(w.ix.Columns(), slices.Index(w.atom.Vars, id)))
			if w.depth[len(o.dims)] >= 0 {
				holders = append(holders, j)
			}
		}
		if p < inst.Mu {
			o.free++
		}
		o.dims = append(o.dims, p)
		o.holders = append(o.holders, holders)
	}
	return o
}

// boundFirst returns the atom's BoundFirst index, for newOrder.
func boundFirst(a *AtomInfo) *relation.Index { return a.BoundFirst }

// NewEnum prepares an enumerator for the box-restricted access request
// Q^η[v_b] ⋉ B. The bound valuation must have one value per bound variable
// of the instance's view.
func NewEnum(inst *Instance, vb relation.Tuple, box interval.Box) *Enum {
	return newEnum(inst.request, vb, box)
}

// newEnum prepares an enumerator of the join in order o within box; vb is
// read only when o pins the bound valuation.
func newEnum(o *order, vb relation.Tuple, box interval.Box) *Enum {
	e := &Enum{o: o, vb: vb, box: box, assignment: make(relation.Tuple, len(o.dims))}
	stride := len(o.dims) + 1
	flat := make([]rng, len(o.walks)*stride)
	e.ranges = make([][]rng, len(o.walks))
	for i := range e.ranges {
		e.ranges[i] = flat[i*stride : (i+1)*stride : (i+1)*stride]
	}
	return e
}

// Reset restarts the enumeration on box under the same bound valuation.
// Ops keeps counting across resets.
func (e *Enum) Reset(box interval.Box) {
	e.box = box
	e.fixed = 0
	e.started = false
	e.done = false
}

// Rebind restarts the enumeration on box under a new bound valuation vb,
// which the next Next seeks afresh.
func (e *Enum) Rebind(vb relation.Tuple, box interval.Box) {
	e.vb = vb
	e.baseDone = false
	e.Reset(box)
}

// Ops returns the number of index seeks performed so far — a
// machine-independent work counter used by the benchmark harness.
func (e *Enum) Ops() uint64 { return e.ops }

// Next returns the next free-variable valuation, or false when the
// enumeration is complete. The returned tuple is freshly allocated.
func (e *Enum) Next() (relation.Tuple, bool) {
	if !e.step() {
		return nil, false
	}
	if len(e.assignment) == 0 {
		return relation.Tuple{}, true
	}
	return e.assignment.Clone(), true
}

// AppendNext appends the next free-variable valuation to dst, reporting
// false (and dst unchanged) when the enumeration is complete: Next without
// the per-tuple allocation, for builders that store answers back to back.
func (e *Enum) AppendNext(dst []relation.Value) ([]relation.Value, bool) {
	if !e.step() {
		return dst, false
	}
	return append(dst, e.assignment...), true
}

// Exists reports whether the enumeration is non-empty, consuming at most
// one result and allocating nothing. Use on a fresh or reset enumerator.
func (e *Enum) Exists() bool { return e.step() }

// step advances the assignment to the next solution, reporting false once
// the enumeration is complete. A request's empty box ends it before any
// seek; a candidate order leaves the box to its seeks, since it ignores
// the box at a free position it does not hold.
func (e *Enum) step() bool {
	if e.done {
		return false
	}
	last := len(e.o.dims) - 1
	if !e.started {
		e.started = true
		if e.o.pin && e.box.EmptyRange() || !e.initBase() {
			e.done = true
			return false
		}
		if last < 0 {
			e.done = true
			return true
		}
		if e.descendFrom(0, relation.NegInf) {
			return true
		}
		e.done = true
		return false
	}
	if e.advance(last) {
		return true
	}
	e.done = true
	return false
}

// Contains reports whether the free tuple ft, together with the bound
// valuation, satisfies every atom — whether it is an output tuple of the
// join. This is the unit-interval evaluation of Algorithm 2. It narrows
// each atom's bound-valuation range (sought once, shared with the
// enumeration) by the free columns, a constant number of index probes,
// and allocates nothing. Every column of an atom holds a bound or a free
// variable, so a non-empty range means the row is present. It needs a
// request's enumerator (NewEnum), which walks every atom's BoundFirst.
func (e *Enum) Contains(ft relation.Tuple) bool {
	if !e.initBase() {
		return false
	}
	for j := range e.o.walks {
		a, r := e.o.walks[j].atom, e.ranges[j][0]
		lo, hi, nb := r.lo, r.hi, len(a.BoundPos)
		for k, pos := range a.FreePos {
			if lo, hi = a.BoundFirst.ValueRange(lo, hi, nb+k, ft[pos]); lo >= hi {
				return false
			}
		}
	}
	return true
}

// initBase starts every walk's range: its atom's run of the bound
// valuation under a pinning order, which also verifies the all-bound
// atoms, or the whole index. The seeks run once per bound valuation; a
// reset reuses their result.
func (e *Enum) initBase() bool {
	if e.baseDone {
		return e.baseOK
	}
	e.baseDone, e.baseOK = true, false
	for j, w := range e.o.walks {
		e.ops++
		lo, hi := 0, w.ix.Len()
		if e.o.pin {
			lo, hi = w.atom.boundRange(e.vb)
		}
		if lo >= hi {
			return false
		}
		e.ranges[j][0] = rng{lo, hi}
	}
	e.baseOK = true
	return true
}

// constraint returns the box's restriction at dimension d; a bound
// dimension is unconstrained.
func (e *Enum) constraint(d int) (lo relation.Value, loInc bool, hi relation.Value, hiInc bool, pinned bool, pin relation.Value) {
	if d < e.o.free {
		p := e.o.dims[d]
		if p < len(e.box.Prefix) {
			return 0, false, 0, false, true, e.box.Prefix[p]
		}
		if e.box.HasRange && p == len(e.box.Prefix) {
			return e.box.Lo, e.box.LoInc, e.box.Hi, e.box.HiInc, false, 0
		}
	}
	return relation.NegInf, true, relation.PosInf, true, false, 0
}

// seekGE returns the first position of walk w's range rs[d] at
// dimension d whose value there is ≥ v. While depth d is fixed (d <
// fixed) v is above assignment[d], so the answer lies past the end of
// assignment[d]'s run: the seek gallops from there instead of searching
// the whole range.
func (e *Enum) seekGE(w *walk, rs []rng, d int, v relation.Value) int {
	if d < e.fixed {
		return w.ix.GallopGE(rs[d+1].hi, rs[d].hi, w.depth[d], v)
	}
	return w.ix.SeekGE(rs[d].lo, rs[d].hi, w.depth[d], v)
}

// seekCandidate finds the smallest value ≥ from at dimension d that is
// present in every atom holding it and satisfies the box constraint.
func (e *Enum) seekCandidate(d int, from relation.Value) (relation.Value, bool) {
	lo, loInc, hi, hiInc, pinned, pin := e.constraint(d)
	if pinned {
		if pin < from {
			return 0, false
		}
		// Verify every atom holding d has the pinned value available.
		if !e.allHave(d, pin) {
			return 0, false
		}
		return pin, true
	}
	v := from
	if loInc {
		if lo > v {
			v = lo
		}
	} else if lo >= v {
		if lo == relation.PosInf {
			return 0, false
		}
		v = lo + 1
	}
	for {
		if hiInc && v > hi || !hiInc && v >= hi {
			return 0, false
		}
		advanced := false
		for _, j := range e.o.holders[d] {
			w, rs := &e.o.walks[j], e.ranges[j]
			e.ops++
			pos := e.seekGE(w, rs, d, v)
			if pos >= rs[d].hi {
				return 0, false
			}
			if val := w.ix.ValueAt(pos, w.depth[d]); val > v {
				v = val
				advanced = true
				break
			}
		}
		if !advanced {
			if hiInc && v > hi || !hiInc && v >= hi {
				return 0, false
			}
			return v, true
		}
	}
}

// allHave reports whether every atom holding dimension d has value v
// available in its current range.
func (e *Enum) allHave(d int, v relation.Value) bool {
	for _, j := range e.o.holders[d] {
		w, r := &e.o.walks[j], e.ranges[j][d]
		e.ops++
		pos := w.ix.SeekGE(r.lo, r.hi, w.depth[d], v)
		if pos >= r.hi || w.ix.ValueAt(pos, w.depth[d]) != v {
			return false
		}
	}
	return true
}

// fix records assignment[d] = v and narrows every walk's range to v's
// run, whose end it gallops to from the run's start. The deeper ranges no
// longer describe the assignment.
func (e *Enum) fix(d int, v relation.Value) {
	for j, rs := range e.ranges {
		w := &e.o.walks[j]
		if w.depth[d] < 0 {
			rs[d+1] = rs[d]
			continue
		}
		e.ops++
		lo := e.seekGE(w, rs, d, v)
		rs[d+1] = rng{lo, w.ix.GallopGT(lo, rs[d].hi, w.depth[d], v)}
	}
	e.assignment[d] = v
	e.fixed = d + 1
}

// descendFrom searches depth-first for the first solution whose value at
// depth d is ≥ from.
func (e *Enum) descendFrom(d int, from relation.Value) bool {
	v, ok := e.seekCandidate(d, from)
	for ok {
		e.fix(d, v)
		if d == len(e.o.dims)-1 {
			return true
		}
		if e.descendFrom(d+1, relation.NegInf) {
			return true
		}
		if v == relation.PosInf {
			return false
		}
		v, ok = e.seekCandidate(d, v+1)
	}
	return false
}

// advance finds the lexicographically next solution after the current
// assignment, varying depth d or above.
func (e *Enum) advance(d int) bool {
	for d >= 0 {
		cur := e.assignment[d]
		if cur == relation.PosInf {
			d--
			continue
		}
		v, ok := e.seekCandidate(d, cur+1)
		if !ok {
			d--
			continue
		}
		e.fix(d, v)
		if d == len(e.o.dims)-1 {
			return true
		}
		if e.descendFrom(d+1, relation.NegInf) {
			return true
		}
		// The deeper levels are exhausted for this value; keep advancing at
		// the same depth.
	}
	return false
}
