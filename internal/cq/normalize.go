package cq

import (
	"fmt"

	"cqrep/internal/relation"
)

// NAtom is an atom of a normalized (natural join) view: a concrete relation
// together with the distinct variable ids of its columns.
type NAtom struct {
	Rel  *relation.Relation
	Vars []int
}

// NormalizedView is a full adorned view rewritten to a natural join query
// over concrete relations, as in Example 3: constants and repeated variables
// have been compiled away by a linear-time pass that derives filtered,
// projected relations. All downstream structures (Theorems 1 and 2, the
// baselines) operate on normalized views.
type NormalizedView struct {
	Source *View
	// Vars lists every variable; for a full view this equals the head. The
	// variable id of Vars[i] is i.
	Vars []string
	// Free holds the ids of free variables in head order — the global
	// lexicographic enumeration order x1_f..xµ_f.
	Free []int
	// Bound holds the ids of bound variables in head order; access-request
	// valuations are tuples in this order.
	Bound []int
	Atoms []NAtom

	varIndex map[string]int
}

// Normalize validates the view, requires it to be full (use ExtendToFull
// first for boolean or projected views), resolves every atom against db, and
// rewrites away constants and repeated variables.
func Normalize(v *View, db *relation.Database) (*NormalizedView, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if !v.IsFull() {
		return nil, fmt.Errorf("cq: view %s is not full; apply ExtendToFull before normalizing", v.Name)
	}
	nv := &NormalizedView{Source: v, Vars: append([]string(nil), v.Head...), varIndex: make(map[string]int)}
	for i, name := range nv.Vars {
		nv.varIndex[name] = i
	}
	for i, h := range v.Head {
		if v.Pattern[i] == Free {
			nv.Free = append(nv.Free, nv.varIndex[h])
		} else {
			nv.Bound = append(nv.Bound, nv.varIndex[h])
		}
	}
	for ai, atom := range v.Body {
		rel, err := db.Relation(atom.Relation)
		if err != nil {
			return nil, err
		}
		if rel.Arity() != len(atom.Terms) {
			return nil, fmt.Errorf("cq: atom %s has %d terms but relation %s has arity %d",
				atom, len(atom.Terms), rel.Name(), rel.Arity())
		}
		na, err := normalizeAtom(ai, atom, rel, nv.varIndex)
		if err != nil {
			return nil, err
		}
		nv.Atoms = append(nv.Atoms, na)
	}
	return nv, nil
}

// normalizeAtom rewrites one atom. Atoms that are already natural-join
// shaped reuse the base relation; others derive a filtered projection.
func normalizeAtom(ai int, atom Atom, rel *relation.Relation, varIndex map[string]int) (NAtom, error) {
	firstPos := make(map[string]int)
	var varOrder []string
	needsRewrite := false
	for pos, t := range atom.Terms {
		if t.IsConst {
			needsRewrite = true
			continue
		}
		if p, seen := firstPos[t.Var]; seen {
			_ = p
			needsRewrite = true
			continue
		}
		firstPos[t.Var] = pos
		varOrder = append(varOrder, t.Var)
	}
	if len(varOrder) == 0 {
		return NAtom{}, fmt.Errorf("cq: atom %s has no variables; fully-ground atoms are not supported in normalized views", atom)
	}

	varIDs := make([]int, len(varOrder))
	for i, name := range varOrder {
		id, ok := varIndex[name]
		if !ok {
			return NAtom{}, fmt.Errorf("cq: atom %s uses unknown variable %s", atom, name)
		}
		varIDs[i] = id
	}

	if !needsRewrite {
		return NAtom{Rel: rel, Vars: varIDs}, nil
	}

	derived := relation.NewRelation(fmt.Sprintf("%s#%d", rel.Name(), ai), len(varOrder))
	cols := make([]int, len(varOrder))
	for i, name := range varOrder {
		cols[i] = firstPos[name]
	}
	for i, n := 0, rel.Len(); i < n; i++ {
		row := rel.Row(i)
		ok := true
		for pos, t := range atom.Terms {
			if t.IsConst {
				if row[pos] != t.Const {
					ok = false
					break
				}
			} else if row[pos] != row[firstPos[t.Var]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := derived.Insert(row.Project(cols)); err != nil {
			return NAtom{}, err
		}
	}
	return NAtom{Rel: derived, Vars: varIDs}, nil
}

// VarID returns the id of the named variable, or -1 when absent.
func (nv *NormalizedView) VarID(name string) int {
	id, ok := nv.varIndex[name]
	if !ok {
		return -1
	}
	return id
}

// FreeNames returns the free variable names in enumeration order.
func (nv *NormalizedView) FreeNames() []string {
	out := make([]string, len(nv.Free))
	for i, id := range nv.Free {
		out[i] = nv.Vars[id]
	}
	return out
}

// BoundNames returns the bound variable names in valuation order.
func (nv *NormalizedView) BoundNames() []string {
	out := make([]string, len(nv.Bound))
	for i, id := range nv.Bound {
		out[i] = nv.Vars[id]
	}
	return out
}

// Hypergraph returns the hypergraph of the normalized natural join.
func (nv *NormalizedView) Hypergraph() Hypergraph {
	h := Hypergraph{N: len(nv.Vars)}
	for _, a := range nv.Atoms {
		h.Edges = append(h.Edges, append([]int(nil), a.Vars...))
	}
	return h
}
