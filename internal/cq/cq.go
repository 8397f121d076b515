// Package cq models conjunctive queries and adorned views as defined in
// Section 2 of Deep & Koutris (PODS 2018): atoms over variables and
// constants, head variables annotated with an access pattern of bound (b)
// and free (f) binding types, and the hypergraph of a natural join query.
//
// The package also implements the linear-time rewriting of Example 3 that
// removes constants and repeated variables, so downstream structures only
// ever deal with natural join queries.
package cq

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cqrep/internal/relation"
)

// Adornment is the binding type of one head variable.
type Adornment byte

const (
	// Bound marks a head variable whose value is supplied by the access
	// request.
	Bound Adornment = 'b'
	// Free marks a head variable whose values are enumerated by the access
	// request.
	Free Adornment = 'f'
)

// AccessPattern is the sequence of binding types for the head variables,
// e.g. "bfb" for the mutual-friend view of Example 1.
type AccessPattern []Adornment

// String renders the pattern as a compact string such as "bfb".
func (p AccessPattern) String() string {
	b := make([]byte, len(p))
	for i, a := range p {
		b[i] = byte(a)
	}
	return string(b)
}

// ParseAccessPattern parses a string of 'b' and 'f' runes.
func ParseAccessPattern(s string) (AccessPattern, error) {
	p := make(AccessPattern, 0, len(s))
	for _, r := range s {
		switch r {
		case 'b', 'f':
			p = append(p, Adornment(r))
		default:
			return nil, fmt.Errorf("cq: invalid adornment %q in %q (want only 'b'/'f')", r, s)
		}
	}
	return p, nil
}

// Term is an argument of an atom in the surface syntax: either a variable
// (by name) or a constant.
type Term struct {
	IsConst bool
	Const   relation.Value
	Var     string
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v relation.Value) Term { return Term{IsConst: true, Const: v} }

// String renders the term.
func (t Term) String() string {
	if t.IsConst {
		return t.Const.String()
	}
	return t.Var
}

// Atom is one relational atom R(t1, ..., tk) in a query body.
type Atom struct {
	Relation string
	Terms    []Term
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Relation + "(" + strings.Join(parts, ", ") + ")"
}

// Vars returns the distinct variable names in the atom, in order of first
// occurrence.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Terms {
		if !t.IsConst && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// View is an adorned view Q^η(x1..xk) = body. The head variables and the
// access pattern have equal length; head variables must appear in the body.
type View struct {
	Name    string
	Head    []string
	Pattern AccessPattern
	Body    []Atom
}

// Validate checks the structural well-formedness rules of Section 2.2:
// pattern length matches the head, head variables are distinct and appear in
// the body, and every atom has at least one term.
func (v *View) Validate() error {
	if len(v.Head) != len(v.Pattern) {
		return fmt.Errorf("cq: view %s has %d head variables but %d adornments", v.Name, len(v.Head), len(v.Pattern))
	}
	if len(v.Body) == 0 {
		return fmt.Errorf("cq: view %s has an empty body", v.Name)
	}
	seen := make(map[string]bool)
	for _, h := range v.Head {
		if seen[h] {
			return fmt.Errorf("cq: view %s repeats head variable %s", v.Name, h)
		}
		seen[h] = true
	}
	bodyVars := make(map[string]bool)
	for _, a := range v.Body {
		if len(a.Terms) == 0 {
			return fmt.Errorf("cq: view %s has nullary atom %s", v.Name, a.Relation)
		}
		for _, va := range a.Vars() {
			bodyVars[va] = true
		}
	}
	for _, h := range v.Head {
		if !bodyVars[h] {
			return fmt.Errorf("cq: view %s: head variable %s does not appear in the body", v.Name, h)
		}
	}
	return nil
}

// IsFull reports whether every body variable appears in the head (the
// "full CQ" condition required by Theorems 1 and 2).
func (v *View) IsFull() bool {
	head := make(map[string]bool, len(v.Head))
	for _, h := range v.Head {
		head[h] = true
	}
	for _, a := range v.Body {
		for _, va := range a.Vars() {
			if !head[va] {
				return false
			}
		}
	}
	return true
}

// FreeVars returns the free head variables in head order — the
// lexicographic enumeration order x1_f, ..., xµ_f of Section 3.1.
func (v *View) FreeVars() []string {
	var out []string
	for i, h := range v.Head {
		if v.Pattern[i] == Free {
			out = append(out, h)
		}
	}
	return out
}

// BoundVars returns the bound head variables in head order.
func (v *View) BoundVars() []string {
	var out []string
	for i, h := range v.Head {
		if v.Pattern[i] == Bound {
			out = append(out, h)
		}
	}
	return out
}

// BindArgs assembles a bound-variable valuation tuple (in head order) from
// a name→value map. Every bound variable must be supplied; extra names are
// rejected so typos fail loudly. Call it on the full view (ExtendToFull),
// where a body-only variable of a projected view is a free head variable.
func (v *View) BindArgs(args map[string]relation.Value) (relation.Tuple, error) {
	for name := range args {
		i := slices.Index(v.Head, name)
		if i < 0 {
			return nil, fmt.Errorf("cq: view %s has no variable %q", v.Name, name)
		}
		if v.Pattern[i] != Bound {
			return nil, fmt.Errorf("cq: variable %q of view %s is free, not bound", name, v.Name)
		}
	}
	// Every name is now a bound variable, so a complete valuation has
	// exactly len(args) values.
	vb := make(relation.Tuple, 0, len(args))
	for i, h := range v.Head {
		if v.Pattern[i] != Bound {
			continue
		}
		val, ok := args[h]
		if !ok {
			return nil, fmt.Errorf("cq: access request missing bound variable %q", h)
		}
		vb = append(vb, val)
	}
	return vb, nil
}

// BodyVars returns all distinct body variables, head variables first (in
// head order) followed by body-only variables in order of first occurrence.
func (v *View) BodyVars() []string {
	out := append([]string(nil), v.Head...)
	seen := make(map[string]bool)
	for _, h := range v.Head {
		seen[h] = true
	}
	for _, a := range v.Body {
		for _, va := range a.Vars() {
			if !seen[va] {
				seen[va] = true
				out = append(out, va)
			}
		}
	}
	return out
}

// ExtendToFull returns a view whose head additionally contains every
// body-only variable, adorned free. For a boolean adorned view such as
// k-SetDisjointness (Section 3.3) this is exactly the full view whose data
// structure answers the boolean question: the answer is "yes" iff the
// extended view enumerates at least one tuple. If the view is already full
// it is returned unchanged.
func (v *View) ExtendToFull() *View {
	if v.IsFull() {
		return v
	}
	ext := &View{Name: v.Name, Head: append([]string(nil), v.Head...), Pattern: append(AccessPattern(nil), v.Pattern...), Body: v.Body}
	for _, va := range v.BodyVars()[len(v.Head):] {
		ext.Head = append(ext.Head, va)
		ext.Pattern = append(ext.Pattern, Free)
	}
	return ext
}

// String renders the adorned view in the paper's notation.
func (v *View) String() string {
	var b strings.Builder
	b.WriteString(v.Name)
	b.WriteByte('[')
	b.WriteString(v.Pattern.String())
	b.WriteString("](")
	b.WriteString(strings.Join(v.Head, ", "))
	b.WriteString(") :- ")
	parts := make([]string, len(v.Body))
	for i, a := range v.Body {
		parts[i] = a.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	return b.String()
}

// Hypergraph is the hypergraph H = (V, E) of a natural join query: vertices
// are variable ids 0..N-1 and every atom contributes one hyperedge. Parallel
// edges (atoms with identical variable sets) are preserved because
// fractional covers weight atoms individually.
type Hypergraph struct {
	N     int
	Edges [][]int
}

// EdgesTouching returns the indexes of the hyperedges intersecting the set I
// — the E_I of Section 2.1.
func (h Hypergraph) EdgesTouching(set []int) []int {
	in := make([]bool, h.N)
	for _, v := range set {
		in[v] = true
	}
	var out []int
	for i, e := range h.Edges {
		for _, v := range e {
			if in[v] {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// EdgesWithin returns the indexes of the hyperedges fully contained in set.
func (h Hypergraph) EdgesWithin(set []int) []int {
	in := make([]bool, h.N)
	for _, v := range set {
		in[v] = true
	}
	var out []int
	for i, e := range h.Edges {
		ok := true
		for _, v := range e {
			if !in[v] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// PrimalNeighbors returns the adjacency lists of the primal graph: u ~ v iff
// they co-occur in some hyperedge.
func (h Hypergraph) PrimalNeighbors() [][]int {
	adj := make([]map[int]bool, h.N)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for _, e := range h.Edges {
		for _, u := range e {
			for _, v := range e {
				if u != v {
					adj[u][v] = true
				}
			}
		}
	}
	out := make([][]int, h.N)
	for i, m := range adj {
		for v := range m {
			out[i] = append(out[i], v)
		}
		sort.Ints(out[i])
	}
	return out
}
