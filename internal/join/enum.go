package join

import (
	"cqrep/internal/interval"
	"cqrep/internal/relation"
)

// Enum enumerates, in lexicographic order, the free-variable valuations of
// the join ⋈_F R_F(v_b) restricted to a canonical f-box. It is a pull-based
// iterator with O(µ · |atoms|) state, implementing a leapfrog-style
// worst-case-optimal backtracking search over sorted indexes.
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
	inst *Instance
	vb   relation.Tuple
	box  interval.Box

	assignment relation.Tuple
	// ranges[ai][d] is the position range of atom ai in its BoundFirst
	// index after fixing the bound valuation and the free positions < d.
	// ranges[ai][0] depends on the bound valuation alone; ranges[ai][d+1]
	// is the run of assignment[d] within ranges[ai][d] (the whole of it
	// when atom ai does not hold free position d). Only ranges[·][0..fixed]
	// describe the current assignment; deeper ones are left over from an
	// earlier prefix.
	ranges   [][]rng
	fixed    int  // ranges[·][d+1] is assignment[d]'s run for every d < fixed
	baseDone bool // ranges[·][0] hold the bound valuation's ranges
	baseOK   bool // every atom's bound range is non-empty
	started  bool
	done     bool
	ops      uint64
}

type rng struct{ lo, hi int }

// NewEnum prepares an enumerator for the box-restricted access request
// Q^η[v_b] ⋉ B. The bound valuation must have one value per bound variable
// of the instance's view.
func NewEnum(inst *Instance, vb relation.Tuple, box interval.Box) *Enum {
	e := &Enum{inst: inst, vb: vb, box: box, assignment: make(relation.Tuple, inst.Mu)}
	stride := inst.Mu + 1
	flat := make([]rng, len(inst.Atoms)*stride)
	e.ranges = make([][]rng, len(inst.Atoms))
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
	if e.inst.Mu == 0 {
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
// the enumeration is complete.
func (e *Enum) step() bool {
	if e.done {
		return false
	}
	if !e.started {
		e.started = true
		if e.box.EmptyRange() || !e.initBase() {
			e.done = true
			return false
		}
		if e.inst.Mu == 0 {
			e.done = true
			return true
		}
		if e.descendFrom(0, relation.NegInf) {
			return true
		}
		e.done = true
		return false
	}
	if e.advance(e.inst.Mu - 1) {
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
// variable, so a non-empty range means the row is present.
func (e *Enum) Contains(ft relation.Tuple) bool {
	if !e.initBase() {
		return false
	}
	for ai, a := range e.inst.Atoms {
		r, nb := e.ranges[ai][0], len(a.BoundPos)
		lo, hi := r.lo, r.hi
		for k, pos := range a.FreePos {
			if lo, hi = a.BoundFirst.ValueRange(lo, hi, nb+k, ft[pos]); lo >= hi {
				return false
			}
		}
	}
	return true
}

// initBase fixes the bound valuation in every atom and verifies the
// all-bound atoms. The seeks run once per bound valuation; a reset reuses
// their result.
func (e *Enum) initBase() bool {
	if e.baseDone {
		return e.baseOK
	}
	e.baseDone, e.baseOK = true, false
	for ai, a := range e.inst.Atoms {
		e.ops++
		lo, hi := a.boundRange(e.vb)
		if lo >= hi {
			return false
		}
		e.ranges[ai][0] = rng{lo, hi}
	}
	e.baseOK = true
	return true
}

// constraint returns the box's restriction at free position d.
func (e *Enum) constraint(d int) (lo relation.Value, loInc bool, hi relation.Value, hiInc bool, pinned bool, pin relation.Value) {
	if d < len(e.box.Prefix) {
		return 0, false, 0, false, true, e.box.Prefix[d]
	}
	if e.box.HasRange && d == len(e.box.Prefix) {
		return e.box.Lo, e.box.LoInc, e.box.Hi, e.box.HiInc, false, 0
	}
	return relation.NegInf, true, relation.PosInf, true, false, 0
}

// seekGE returns the first position of atom ai's range at free position d
// whose value there is ≥ v. While depth d is fixed (d < fixed) v is above
// assignment[d], so the answer lies past the end of assignment[d]'s run:
// the seek gallops from there instead of searching the whole range.
func (e *Enum) seekGE(ai, d int, v relation.Value) int {
	a := e.inst.Atoms[ai]
	depth := len(a.BoundCols) + a.freeDepth[d]
	r := e.ranges[ai][d]
	if d < e.fixed {
		return a.BoundFirst.GallopGE(e.ranges[ai][d+1].hi, r.hi, depth, v)
	}
	return a.BoundFirst.SeekGE(r.lo, r.hi, depth, v)
}

// seekCandidate finds the smallest value ≥ from at free position d that is
// present in every atom containing d and satisfies the box constraint.
func (e *Enum) seekCandidate(d int, from relation.Value) (relation.Value, bool) {
	lo, loInc, hi, hiInc, pinned, pin := e.constraint(d)
	if pinned {
		if pin < from {
			return 0, false
		}
		// Verify every atom containing d has the pinned value available.
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
	atoms := e.atomsAt(d)
	if len(atoms) == 0 {
		// Defensive: no atom constrains this variable; walk its active
		// domain instead.
		return e.domainSeek(d, v, hi, hiInc)
	}
	for {
		if hiInc && v > hi || !hiInc && v >= hi {
			return 0, false
		}
		advanced := false
		for _, ai := range atoms {
			a := e.inst.Atoms[ai]
			e.ops++
			pos := e.seekGE(ai, d, v)
			if pos >= e.ranges[ai][d].hi {
				return 0, false
			}
			if val := a.BoundFirst.ValueAt(pos, len(a.BoundCols)+a.freeDepth[d]); val > v {
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

// allHave reports whether every atom containing d has value v available in
// its current range.
func (e *Enum) allHave(d int, v relation.Value) bool {
	for _, ai := range e.atomsAt(d) {
		a := e.inst.Atoms[ai]
		depth := len(a.BoundCols) + a.freeDepth[d]
		r := e.ranges[ai][d]
		e.ops++
		pos := a.BoundFirst.SeekGE(r.lo, r.hi, depth, v)
		if pos >= r.hi || a.BoundFirst.ValueAt(pos, depth) != v {
			return false
		}
	}
	return true
}

// domainSeek iterates the active domain for unconstrained dimensions.
func (e *Enum) domainSeek(d int, v relation.Value, hi relation.Value, hiInc bool) (relation.Value, bool) {
	dom := e.inst.FreeDomain(d)
	i := searchValues(dom, v)
	if i >= len(dom) {
		return 0, false
	}
	got := dom[i]
	if hiInc && got > hi || !hiInc && got >= hi {
		return 0, false
	}
	return got, true
}

func searchValues(dom []relation.Value, v relation.Value) int {
	lo, hi := 0, len(dom)
	for lo < hi {
		mid := (lo + hi) / 2
		if dom[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// atomsAt returns the atom indexes containing free position d.
func (e *Enum) atomsAt(d int) []int { return e.inst.freeAtoms[d] }

// fix records assignment[d] = v and narrows every atom range to v's run,
// whose end it gallops to from the run's start. The deeper ranges no
// longer describe the assignment.
func (e *Enum) fix(d int, v relation.Value) {
	for ai, a := range e.inst.Atoms {
		if !a.ContainsFree(d) {
			e.ranges[ai][d+1] = e.ranges[ai][d]
			continue
		}
		e.ops++
		lo := e.seekGE(ai, d, v)
		hi := a.BoundFirst.GallopGT(lo, e.ranges[ai][d].hi, len(a.BoundCols)+a.freeDepth[d], v)
		e.ranges[ai][d+1] = rng{lo, hi}
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
		if d == e.inst.Mu-1 {
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
		if d == e.inst.Mu-1 {
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
