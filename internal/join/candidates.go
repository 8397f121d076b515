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
// The enumeration is Enum over the E_Vb atoms with the *free* variables
// ordered first — free variables are the connective ones (e.g. the shared
// z of a star query), so ordering them first keeps the search
// output-bounded instead of exploding into the cross product of the
// per-atom bound domains. Duplicate projections are suppressed with a
// per-call seen set. emit returning false aborts.
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
	components, _ := inst.candidateOrders()

	// Enumerate each component's distinct bound-part projections.
	parts := make([][]relation.Tuple, len(components))
	for c, o := range components {
		e := newEnum(o, nil, box)
		seen := make(map[string]bool)
		var key []byte
		for e.step() {
			part := e.assignment[o.free:]
			key = part.AppendEncode(key[:0])
			if !seen[string(key)] {
				seen[string(key)] = true
				parts[c] = append(parts[c], part.Clone())
			}
		}
		if len(parts[c]) == 0 {
			return // one empty component empties the whole product
		}
	}

	// Cross product of component parts, assembled into full valuations.
	full := make(relation.Tuple, nb)
	var rec func(c int) bool
	rec = func(c int) bool {
		if c == len(components) {
			return emit(full.Clone())
		}
		o := components[c]
		for _, part := range parts[c] {
			for i, p := range o.dims[o.free:] {
				full[p-inst.Mu] = part[i]
			}
			if !rec(c + 1) {
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
	components, _ := inst.candidateOrders()
	return len(components) == 1 && len(components[0].dims) == inst.Mu+len(inst.NV.Bound)
}

// BoundWitnesses streams the E_Vb join within box: every pair of a free
// tuple ft and a bound valuation vb whose values satisfy every
// bound-touching atom, ordered by ft then vb, with no deduplication. It is
// BoundCandidates' enumeration before the projection, and needs
// Witnessed(inst). ft and vb are reused between calls; emit returning
// false aborts.
func BoundWitnesses(inst *Instance, box interval.Box, emit func(ft, vb relation.Tuple) bool) {
	components, _ := inst.candidateOrders()
	e := newEnum(components[0], nil, box)
	a, mu := e.assignment, inst.Mu
	for e.step() && emit(a[:mu:mu], a[mu:]) {
	}
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
//
// It is Enum over E_Vb's bound positions alone, joining the atoms on
// shared bound variables; each valuation is then checked against the box
// atom by atom (CountBoxBound), not jointly.
func BoundCandidatesExhaustive(inst *Instance, box interval.Box, emit func(vb relation.Tuple) bool) {
	if len(inst.NV.Bound) == 0 {
		emit(relation.Tuple{})
		return
	}
	_, exhaustive := inst.candidateOrders()
	e := newEnum(exhaustive, nil, interval.Box{})
next:
	for e.step() {
		for ai, a := range inst.Atoms {
			if len(a.BoundCols) > 0 && inst.CountBoxBound(ai, e.assignment, box) == 0 {
				continue next
			}
		}
		if !emit(e.assignment.Clone()) {
			return
		}
	}
}

// candidateOrders returns the candidate order of each connected component
// of E_Vb (the component's free positions, then its bound positions, over
// FreeFirst) and the exhaustive order (E_Vb's bound positions over
// BoundFirst). The first call builds them, once per instance.
func (inst *Instance) candidateOrders() (components []*order, exhaustive *order) {
	inst.ordersOnce.Do(func() {
		var atoms []int
		for ai, a := range inst.Atoms {
			if len(a.BoundCols) > 0 {
				atoms = append(atoms, ai)
			}
		}
		heads := inst.Mu + len(inst.NV.Bound)
		for _, comp := range connectedComponents(inst, atoms) {
			inst.components = append(inst.components, newOrder(inst, comp, 0, heads, (*AtomInfo).FreeFirst, false))
		}
		inst.exhaustive = newOrder(inst, atoms, inst.Mu, heads, boundFirst, false)
	})
	return inst.components, inst.exhaustive
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
