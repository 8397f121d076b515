package join

import (
	"cqrep/internal/interval"
	"cqrep/internal/relation"
)

// BoundCandidates streams the candidate heavy valuations of Proposition 13:
// the distinct bound valuations in π_{V_b}((⋈_{F∈E_Vb} R_F) ⋉ B), where
// E_Vb is the set of atoms touching at least one bound variable. Every
// τ-heavy valuation of the box's interval appears in this stream (the
// paper's L_I construction, Appendix A); exact heaviness is re-checked by
// the caller with Estimator.TIntervalBound. The Theorem-1 build calls it
// per tree node only where BoundWitnesses does not apply.
//
// The enumeration is a worst-case-optimal backtracking join over the E_Vb
// atoms with the *free* variables ordered first — free variables are the
// connective ones (e.g. the shared z of a star query), so ordering them
// first keeps the search output-bounded instead of exploding into the
// cross product of the per-atom bound domains. Duplicate projections are
// suppressed with a per-call seen set. emit returning false aborts.
// When E_Vb splits into several connected components (atoms sharing no
// variables), the projection factors into the cross product of per-
// component projections; enumerating each component separately and
// combining avoids re-enumerating independent sub-joins per assignment
// (e.g. for the path query P_n^{bf..fb}, whose two endpoint atoms are
// disconnected).
func BoundCandidates(inst *Instance, box interval.Box, emit func(vb relation.Tuple) bool) {
	nb := len(inst.NV.Bound)
	if nb == 0 {
		// A single empty valuation; heaviness is the caller's test.
		emit(relation.Tuple{})
		return
	}
	components := connectedComponents(inst, boundAtoms(inst))

	// Enumerate each component's distinct bound-part projections.
	type componentResult struct {
		boundPos []int
		parts    []relation.Tuple
	}
	results := make([]componentResult, 0, len(components))
	for _, comp := range components {
		c := newCandidateEnum(inst, box, comp)
		seen := make(map[string]bool)
		var (
			parts []relation.Tuple
			key   []byte
		)
		c.emit = func(a relation.Tuple) bool {
			part := a[c.boundStart:]
			key = part.AppendEncode(key[:0])
			if !seen[string(key)] {
				seen[string(key)] = true
				parts = append(parts, part.Clone())
			}
			return true
		}
		c.run(0)
		if len(parts) == 0 {
			return // one empty component empties the whole product
		}
		results = append(results, componentResult{boundPos: c.boundPos, parts: parts})
	}

	// Cross product of component parts, assembled into full valuations.
	full := make(relation.Tuple, nb)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(results) {
			return emit(full.Clone())
		}
		for _, part := range results[k].parts {
			for i, pos := range results[k].boundPos {
				full[pos] = part[i]
			}
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// Witnessed reports whether BoundWitnesses applies to the instance: the
// bound-touching atoms form one connected component that holds every free
// and every bound variable. Then a node's Proposition-13 candidates are
// the bound valuations of the witnesses whose free tuple lies in the
// node's interval.
func Witnessed(inst *Instance) bool {
	atoms := boundAtoms(inst)
	if len(atoms) == 0 || len(connectedComponents(inst, atoms)) != 1 {
		return false
	}
	c := newCandidateEnum(inst, interval.Box{}, atoms)
	return c.boundStart == inst.Mu && len(c.boundPos) == len(inst.NV.Bound)
}

// BoundWitnesses streams the E_Vb join within box: every pair of a free
// tuple ft and a bound valuation vb whose values satisfy every
// bound-touching atom, ordered by ft then vb, with no deduplication. It is
// BoundCandidates' enumeration before the projection, and needs
// Witnessed(inst). ft and vb are reused between calls; emit returning
// false aborts.
func BoundWitnesses(inst *Instance, box interval.Box, emit func(ft, vb relation.Tuple) bool) {
	c := newCandidateEnum(inst, box, boundAtoms(inst))
	mu := c.boundStart
	c.emit = func(a relation.Tuple) bool { return emit(a[:mu:mu], a[mu:]) }
	c.run(0)
}

// boundAtoms lists the atoms with at least one bound column: E_Vb.
func boundAtoms(inst *Instance) []int {
	var atoms []int
	for ai, a := range inst.Atoms {
		if len(a.BoundCols) > 0 {
			atoms = append(atoms, ai)
		}
	}
	return atoms
}

// BoundCandidatesExhaustive streams the superset of Proposition 13 needed
// for an unconditional delay guarantee: every bound valuation for which
// each bound-touching atom individually has a compatible row within the
// box. Unlike BoundCandidates (the paper's L_I), this includes heavy
// valuations whose E_Vb *join* is empty — e.g. two high-degree vertices
// with disjoint neighborhoods — whose emptiness bit is precisely what lets
// Algorithm 2 skip them in O(1). The price is that the stream can be as
// large as the cross product of the per-component bound projections, which
// is the paper's own (T(I)/τ)^α heavy-valuation bound (Proposition 7).
func BoundCandidatesExhaustive(inst *Instance, box interval.Box, emit func(vb relation.Tuple) bool) {
	nb := len(inst.NV.Bound)
	if nb == 0 {
		emit(relation.Tuple{})
		return
	}
	e := &exhaustiveEnum{inst: inst, box: box, emit: emit, assignment: make(relation.Tuple, nb)}
	for ai, a := range inst.Atoms {
		if len(a.BoundCols) > 0 {
			e.atoms = append(e.atoms, ai)
		}
	}
	e.ranges = make(map[int][]rng, len(e.atoms))
	for _, ai := range e.atoms {
		r := make([]rng, nb+1)
		r[0] = rng{0, inst.Atoms[ai].BoundFirst.Len()}
		e.ranges[ai] = r
	}
	e.run(0)
}

// exhaustiveEnum backtracks over bound positions joining atoms on shared
// bound variables only; free-variable compatibility is checked per atom at
// the leaves (counting against the box), not jointly.
type exhaustiveEnum struct {
	inst       *Instance
	box        interval.Box
	emit       func(relation.Tuple) bool
	atoms      []int
	assignment relation.Tuple
	ranges     map[int][]rng
	stopped    bool
}

func (e *exhaustiveEnum) run(d int) {
	if e.stopped {
		return
	}
	if d == len(e.assignment) {
		for _, ai := range e.atoms {
			if e.inst.CountBoxBound(ai, e.assignment, e.box) == 0 {
				return
			}
		}
		if !e.emit(e.assignment.Clone()) {
			e.stopped = true
		}
		return
	}
	v, ok := e.seek(d, relation.NegInf)
	for ok && !e.stopped {
		e.fix(d, v)
		e.run(d + 1)
		if v == relation.PosInf {
			return
		}
		v, ok = e.seek(d, v+1)
	}
}

func (e *exhaustiveEnum) seek(d int, from relation.Value) (relation.Value, bool) {
	v := from
	for {
		advanced := false
		participating := false
		for _, ai := range e.atoms {
			a := e.inst.Atoms[ai]
			k := a.boundDepth[d]
			if k < 0 {
				continue
			}
			participating = true
			r := e.ranges[ai][d]
			pos := a.BoundFirst.SeekGE(r.lo, r.hi, k, v)
			if pos >= r.hi {
				return 0, false
			}
			if val := a.BoundFirst.ValueAt(pos, k); val > v {
				v = val
				advanced = true
				break
			}
		}
		if !participating {
			dom := e.inst.BoundDomain(d)
			i := searchValues(dom, v)
			if i >= len(dom) {
				return 0, false
			}
			return dom[i], true
		}
		if !advanced {
			return v, true
		}
	}
}

func (e *exhaustiveEnum) fix(d int, v relation.Value) {
	e.assignment[d] = v
	for _, ai := range e.atoms {
		a := e.inst.Atoms[ai]
		k := a.boundDepth[d]
		r := e.ranges[ai][d]
		if k < 0 {
			e.ranges[ai][d+1] = r
			continue
		}
		lo := a.BoundFirst.SeekGE(r.lo, r.hi, k, v)
		hi := a.BoundFirst.SeekGT(lo, r.hi, k, v)
		e.ranges[ai][d+1] = rng{lo, hi}
	}
}

// connectedComponents groups the given atom indexes by shared variables.
func connectedComponents(inst *Instance, atoms []int) [][]int {
	parent := make(map[int]int, len(atoms))
	for _, ai := range atoms {
		parent[ai] = ai
	}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	varOwner := make(map[int]int)
	for _, ai := range atoms {
		for _, id := range inst.Atoms[ai].Vars {
			if prev, ok := varOwner[id]; ok {
				union(prev, ai)
			} else {
				varOwner[id] = ai
			}
		}
	}
	groups := make(map[int][]int)
	for _, ai := range atoms {
		root := find(ai)
		groups[root] = append(groups[root], ai)
	}
	var out [][]int
	for _, ai := range atoms { // deterministic order by first member
		if g, ok := groups[find(ai)]; ok {
			out = append(out, g)
			delete(groups, find(ai))
		}
	}
	return out
}

// dim is one enumeration dimension: a free position (with box constraints)
// or a bound position.
type dim struct {
	pos  int
	free bool
}

// candidateEnum is the backtracking join over one connected set of E_Vb
// atoms: the free positions they hold in f-order, then the bound positions
// they hold in bound order. emit receives each full assignment.
type candidateEnum struct {
	inst  *Instance
	box   interval.Box
	emit  func(assignment relation.Tuple) bool
	atoms []int
	dims  []dim
	// boundStart is the first bound dimension; boundPos[i] is the global
	// bound position of dims[boundStart+i].
	boundStart int
	boundPos   []int
	// ix[j] is atoms[j]'s FreeFirst index; depth[j][d] is dimension d's
	// column in it, or -1 when the atom does not hold it; ranges[j][d] is
	// atoms[j]'s row range after fixing dimensions < d.
	ix         []*relation.Index
	depth      [][]int
	ranges     [][]rng
	assignment relation.Tuple
	stopped    bool
}

// newCandidateEnum prepares the join of the given atoms within box.
func newCandidateEnum(inst *Instance, box interval.Box, atoms []int) *candidateEnum {
	c := &candidateEnum{inst: inst, box: box, atoms: atoms}
	held := func(has func(*AtomInfo) bool) bool {
		for _, ai := range atoms {
			if has(inst.Atoms[ai]) {
				return true
			}
		}
		return false
	}
	for d := 0; d < inst.Mu; d++ {
		if held(func(a *AtomInfo) bool { return a.ContainsFree(d) }) {
			c.dims = append(c.dims, dim{pos: d, free: true})
		}
	}
	c.boundStart = len(c.dims)
	for i := range inst.NV.Bound {
		if held(func(a *AtomInfo) bool { return a.ContainsBound(i) }) {
			c.dims = append(c.dims, dim{pos: i})
			c.boundPos = append(c.boundPos, i)
		}
	}
	c.assignment = make(relation.Tuple, len(c.dims))
	c.ix = make([]*relation.Index, len(atoms))
	c.depth = make([][]int, len(atoms))
	c.ranges = make([][]rng, len(atoms))
	for j, ai := range atoms {
		a := inst.Atoms[ai]
		c.ix[j] = a.FreeFirst()
		c.depth[j] = make([]int, len(c.dims))
		for d, dm := range c.dims {
			c.depth[j][d] = depthInAtom(a, dm)
		}
		c.ranges[j] = make([]rng, len(c.dims)+1)
		c.ranges[j][0] = rng{0, c.ix[j].Len()}
	}
	return c
}

// depthInAtom returns the FreeFirst index depth of dimension dm within atom
// a, or -1 when the atom does not contain that variable. FreeFirst orders
// free columns (in f-order) before bound columns (in bound order).
func depthInAtom(a *AtomInfo, dm dim) int {
	if dm.free {
		return a.freeDepth[dm.pos]
	}
	if k := a.boundDepth[dm.pos]; k >= 0 {
		return len(a.FreeCols) + k
	}
	return -1
}

// constraint mirrors Enum.constraint for free dimensions; bound dimensions
// are unconstrained.
func (c *candidateEnum) constraint(dm dim) (lo relation.Value, loInc bool, hi relation.Value, hiInc bool, pinned bool, pin relation.Value) {
	if !dm.free {
		return relation.NegInf, true, relation.PosInf, true, false, 0
	}
	d := dm.pos
	if d < len(c.box.Prefix) {
		return 0, false, 0, false, true, c.box.Prefix[d]
	}
	if c.box.HasRange && d == len(c.box.Prefix) {
		return c.box.Lo, c.box.LoInc, c.box.Hi, c.box.HiInc, false, 0
	}
	return relation.NegInf, true, relation.PosInf, true, false, 0
}

// run performs the backtracking search over dimensions, handing every full
// assignment to emit.
func (c *candidateEnum) run(d int) {
	if c.stopped {
		return
	}
	if d == len(c.dims) {
		if !c.emit(c.assignment) {
			c.stopped = true
		}
		return
	}
	v, ok := c.seek(d, relation.NegInf)
	for ok && !c.stopped {
		c.fix(d, v)
		c.run(d + 1)
		if v == relation.PosInf {
			return
		}
		v, ok = c.seek(d, v+1)
	}
}

// seek finds the smallest common value ≥ from at dimension d across
// participating atoms containing it, honoring the box constraint.
func (c *candidateEnum) seek(d int, from relation.Value) (relation.Value, bool) {
	dm := c.dims[d]
	lo, loInc, hi, hiInc, pinned, pin := c.constraint(dm)
	v := from
	if pinned {
		if pin < from {
			return 0, false
		}
		v = pin
		if !c.allHave(d, v) {
			return 0, false
		}
		return v, true
	}
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
		participating := false
		for j := range c.atoms {
			k := c.depth[j][d]
			if k < 0 {
				continue
			}
			participating = true
			ix, r := c.ix[j], c.ranges[j][d]
			pos := ix.SeekGE(r.lo, r.hi, k, v)
			if pos >= r.hi {
				return 0, false
			}
			if val := ix.ValueAt(pos, k); val > v {
				v = val
				advanced = true
				break
			}
		}
		if !participating {
			// Cannot happen for well-formed instances: every dimension was
			// chosen because some participating atom contains it (free) or
			// is a bound head variable (always in some atom). Walk the
			// active domain defensively.
			var dom []relation.Value
			if dm.free {
				dom = c.inst.FreeDomain(dm.pos)
			} else {
				dom = c.inst.BoundDomain(dm.pos)
			}
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
		if !advanced {
			return v, true
		}
	}
}

// allHave checks a pinned value across participating atoms containing d.
func (c *candidateEnum) allHave(d int, v relation.Value) bool {
	for j := range c.atoms {
		k := c.depth[j][d]
		if k < 0 {
			continue
		}
		ix, r := c.ix[j], c.ranges[j][d]
		pos := ix.SeekGE(r.lo, r.hi, k, v)
		if pos >= r.hi || ix.ValueAt(pos, k) != v {
			return false
		}
	}
	return true
}

// fix narrows each participating atom's range to assignment[d] = v.
func (c *candidateEnum) fix(d int, v relation.Value) {
	c.assignment[d] = v
	for j := range c.atoms {
		r := c.ranges[j][d]
		k := c.depth[j][d]
		if k < 0 {
			c.ranges[j][d+1] = r
			continue
		}
		ix := c.ix[j]
		lo := ix.SeekGE(r.lo, r.hi, k, v)
		hi := ix.SeekGT(lo, r.hi, k, v)
		c.ranges[j][d+1] = rng{lo, hi}
	}
}
