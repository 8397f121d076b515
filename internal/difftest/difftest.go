// Package difftest is the differential property harness of the
// reproduction: it generates random acyclic (Generate) and cyclic
// (GenerateCyclic) conjunctive queries with random small databases
// (seeded, deterministic) and checks that every
// representation strategy — primitive, decomposition, materialized,
// direct, and their sharded composites — enumerates exactly what an
// independent naive join produces, across bound/free binding patterns.
//
// The naive side shares nothing with the structures under test: it is a
// plain backtracking evaluation over the base rows, deduplicated and
// sorted in Go. Any divergence — a missing tuple, a duplicate, an order
// violation — is therefore a bug in the representation machinery, in the
// spirit of DkNN-style conformance checking against a trusted baseline.
package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// Case is one generated differential instance.
type Case struct {
	View *cq.View
	DB   *relation.Database
	// Bound and Free are the head's bound/free variable names in head
	// order — the valuation and output column orders of the compiled
	// representation.
	Bound []string
	Free  []string
}

// Generate builds a random acyclic full conjunctive query and a database
// realizing it. The query hypergraph is alpha-acyclic by construction:
// every atom after the first shares its old variables with exactly one
// earlier atom (its join-tree parent) and introduces the rest fresh, so a
// join tree exists trivially. At least one head variable is free (the
// Theorem-1 structure requires it) and, with some probability, atoms
// reuse an earlier relation so self-join aliasing is exercised too.
func Generate(rng *rand.Rand) *Case {
	nVars, atoms := acyclicShape(rng)
	return realize(rng, nVars, atoms)
}

// atomShape is one generated atom: its variables and, once assigned, its
// relation's name.
type atomShape struct {
	vars []int
	rel  string
}

// acyclicShape draws Generate's join-tree shape over 2..6 variables.
func acyclicShape(rng *rand.Rand) (int, []atomShape) {
	nVars := 2 + rng.Intn(5) // 2..6 variables
	var atoms []atomShape
	covered := map[int]bool{}
	pick := func(from []int, k int) []int {
		idx := rng.Perm(len(from))[:k]
		out := make([]int, k)
		for i, j := range idx {
			out[i] = from[j]
		}
		return out
	}

	// First atom: a random nonempty variable subset.
	all := rng.Perm(nVars)
	k := 1 + rng.Intn(min(3, nVars))
	first := append([]int(nil), all[:k]...)
	atoms = append(atoms, atomShape{vars: first})
	for _, v := range first {
		covered[v] = true
	}

	// Grow along a join tree until every variable is covered (plus an
	// occasional extra atom for denser joins).
	for len(covered) < nVars || (len(atoms) < 5 && rng.Intn(3) == 0) {
		parent := atoms[rng.Intn(len(atoms))]
		shared := pick(parent.vars, 1+rng.Intn(len(parent.vars)))
		var fresh []int
		for v := 0; v < nVars && len(fresh) < 2; v++ {
			if !covered[v] && rng.Intn(2) == 0 {
				fresh = append(fresh, v)
			}
		}
		if len(covered) < nVars && len(fresh) == 0 {
			for v := 0; v < nVars; v++ {
				if !covered[v] {
					fresh = append(fresh, v)
					break
				}
			}
		}
		vars := append(shared, fresh...)
		for _, v := range fresh {
			covered[v] = true
		}
		atoms = append(atoms, atomShape{vars: vars})
		if len(atoms) >= 6 {
			break
		}
	}
	return nVars, atoms
}

// GenerateCyclic builds a random cyclic full conjunctive query and a
// database realizing it, in the shapes Generate never makes: a triangle, a
// 4-cycle, or a Generate shape closed by one more atom over two variables
// that share no atom. Relations alias earlier ones and the head is adorned
// as in Generate.
func GenerateCyclic(rng *rand.Rand) *Case {
	if n := 3 + rng.Intn(3); n < 5 { // a triangle or a 4-cycle
		atoms := make([]atomShape, n)
		for i := range atoms {
			atoms[i].vars = []int{i, (i + 1) % n}
			if rng.Intn(2) == 0 {
				atoms[i].vars[0], atoms[i].vars[1] = atoms[i].vars[1], atoms[i].vars[0]
			}
		}
		return realize(rng, n, atoms)
	}
	for {
		nVars, atoms := acyclicShape(rng)
		var open [][]int
		for u := 0; u < nVars; u++ {
			for v := u + 1; v < nVars; v++ {
				if !slices.ContainsFunc(atoms, func(a atomShape) bool {
					return slices.Contains(a.vars, u) && slices.Contains(a.vars, v)
				}) {
					open = append(open, []int{u, v})
				}
			}
		}
		if len(open) > 0 {
			atoms = append(atoms, atomShape{vars: open[rng.Intn(len(open))]})
			return realize(rng, nVars, atoms)
		}
	}
}

// realize draws the relations and the adornment of a query shape over
// nVars variables.
func realize(rng *rand.Rand, nVars int, atoms []atomShape) *Case {
	names := make([]string, nVars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}

	// Assign relations: usually a fresh one per atom, sometimes reusing an
	// earlier relation of the same arity (a self-join alias).
	db := relation.NewDatabase()
	domain := 3 + rng.Intn(4) // 3..6 distinct values: small, so joins hit
	for i := range atoms {
		if rng.Intn(4) == 0 {
			for j := 0; j < i; j++ {
				if len(atoms[j].vars) == len(atoms[i].vars) && atoms[j].rel != "" {
					atoms[i].rel = atoms[j].rel
					break
				}
			}
		}
		if atoms[i].rel == "" {
			name := fmt.Sprintf("R%d", i)
			rel := relation.NewRelation(name, len(atoms[i].vars))
			rows := 2 + rng.Intn(11) // 2..12 rows
			for r := 0; r < rows; r++ {
				t := make(relation.Tuple, rel.Arity())
				for c := range t {
					t[c] = relation.Value(rng.Intn(domain))
				}
				if err := rel.Insert(t); err != nil {
					panic(err)
				}
			}
			db.Add(rel)
			atoms[i].rel = name
		}
	}

	// Adorn the head: random bound/free marks with at least one free.
	view := &cq.View{Name: "Q"}
	freeAt := rng.Intn(nVars)
	headPerm := rng.Perm(nVars)
	var bound, free []string
	for _, v := range headPerm {
		view.Head = append(view.Head, names[v])
		if v == freeAt || rng.Intn(2) == 0 {
			view.Pattern = append(view.Pattern, cq.Free)
			free = append(free, names[v])
		} else {
			view.Pattern = append(view.Pattern, cq.Bound)
			bound = append(bound, names[v])
		}
	}
	for _, a := range atoms {
		atom := cq.Atom{Relation: a.rel}
		for _, v := range a.vars {
			atom.Terms = append(atom.Terms, cq.V(names[v]))
		}
		view.Body = append(view.Body, atom)
	}
	if err := view.Validate(); err != nil {
		panic(fmt.Sprintf("generated invalid view %v: %v", view, err))
	}
	return &Case{View: view, DB: db, Bound: bound, Free: free}
}

// Answer is one naive-join output row, split into its bound and free
// projections (both in head order).
type Answer struct {
	Bound relation.Tuple
	Free  relation.Tuple
}

// NaiveAnswers evaluates the case's query by plain backtracking over the
// base rows — no indexes, no covers, no decompositions — and returns
// every satisfying head assignment, deduplicated.
func (c *Case) NaiveAnswers() []Answer {
	var rels []*relation.Relation
	for _, a := range c.View.Body {
		r, err := c.DB.Relation(a.Relation)
		if err != nil {
			panic(err)
		}
		rels = append(rels, r)
	}
	assign := map[string]relation.Value{}
	seen := map[string]bool{}
	var out []Answer

	var recurse func(atom int)
	recurse = func(atom int) {
		if atom == len(c.View.Body) {
			var b, fr relation.Tuple
			for i, name := range c.View.Head {
				if c.View.Pattern[i] == cq.Bound {
					b = append(b, assign[name])
				} else {
					fr = append(fr, assign[name])
				}
			}
			key := string(b.AppendEncode(nil)) + "|" + string(fr.AppendEncode(nil))
			if !seen[key] {
				seen[key] = true
				out = append(out, Answer{Bound: b, Free: fr})
			}
			return
		}
		r := rels[atom]
		terms := c.View.Body[atom].Terms
		n := r.Len()
		for i := 0; i < n; i++ {
			row := r.Row(i)
			var bound []string
			ok := true
			for j, term := range terms {
				if term.IsConst {
					if row[j] != term.Const {
						ok = false
						break
					}
					continue
				}
				if v, has := assign[term.Var]; has {
					if v != row[j] {
						ok = false
						break
					}
					continue
				}
				assign[term.Var] = row[j]
				bound = append(bound, term.Var)
			}
			if ok {
				recurse(atom + 1)
			}
			for _, name := range bound {
				delete(assign, name)
			}
		}
	}
	recurse(0)
	return out
}

// Expected groups the naive answers by bound valuation and sorts each
// group's free tuples: first lexicographically in head free order, then —
// when order is non-nil (the representation's EnumOrder) — by the
// permuted significance it describes. The result is the exact stream a
// correct representation must produce for that valuation.
func Expected(answers []Answer, vb relation.Tuple, order []int) []relation.Tuple {
	var out []relation.Tuple
	key := string(vb.AppendEncode(nil))
	for _, a := range answers {
		if string(a.Bound.AppendEncode(nil)) == key {
			out = append(out, a.Free)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j], order) })
	return out
}

// Valuations lists every distinct bound valuation with at least one
// answer, sorted, plus one guaranteed miss.
func Valuations(answers []Answer, nBound int) []relation.Tuple {
	seen := map[string]relation.Tuple{}
	for _, a := range answers {
		seen[string(a.Bound.AppendEncode(nil))] = a.Bound
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]relation.Tuple, 0, len(keys)+1)
	for _, k := range keys {
		out = append(out, seen[k])
	}
	miss := make(relation.Tuple, nBound)
	for i := range miss {
		miss[i] = relation.Value(1 << 40)
	}
	return append(out, miss)
}

// less compares free tuples under an enumeration order: the positions in
// order are most significant (in sequence), remaining positions break
// ties in index order.
func less(a, b relation.Tuple, order []int) bool {
	inOrder := make(map[int]bool, len(order))
	for _, p := range order {
		if p >= 0 && p < len(a) {
			if a[p] != b[p] {
				return a[p] < b[p]
			}
			inOrder[p] = true
		}
	}
	for p := range a {
		if !inOrder[p] && a[p] != b[p] {
			return a[p] < b[p]
		}
	}
	return false
}
