package core

import (
	"fmt"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// delta.go implements structure-aware delta maintenance — the backend
// half of ROADMAP item 2. Instead of recompiling a whole representation
// (or a whole dirty shard) on every churn budget breach, backends that can
// apply an *output delta* in place do so on a copy-on-write clone:
//
//   - The compiled view is always full (Build extends it), so every output
//     tuple is one complete variable assignment with a unique derivation:
//     substituting the output into an atom names the exact base tuple that
//     atom consumed. There is no multiplicity to count — an output leaves
//     iff one of its atom tuples was deleted, and enters iff it newly
//     joins through an inserted one.
//   - The net change of a batch against the pre-batch database (only
//     tuples whose presence actually flips; the last operation per tuple
//     wins) therefore determines the output delta exactly: removals seed a
//     backtracking join from each net-deleted tuple over the OLD database,
//     additions seed from each net-inserted tuple over the NEW database.
//     The two sets are disjoint by construction — a removal's witness uses
//     a tuple absent afterwards, an addition's a tuple absent before.
//
// Backends opt in through the deltaApplier capability; anything else (the
// Theorem-2 decomposition, direct evaluation) falls back to the existing
// full/dirty-shard recompile in Representation.rebuildFor. Correctness is
// gated differentially: difftest churn scripts demand the delta-applied
// representation enumerate byte-for-byte what a fresh compile produces.

// deltaApplier is the optional backend capability: applyDelta returns a
// backend equivalent to freshly compiling shell's view over shell's
// database, built by editing this backend copy-on-write (the receiver
// must remain fully usable — queries keep draining it while the swap is
// prepared). ok=false means this particular delta is out of the backend's
// reach (fall back to a full recompile); the implementation fills
// shell.stats the way its backendSpec.build would.
type deltaApplier interface {
	applyDelta(shell *Representation, d *outputDelta) (be backend, ok bool, err error)
	// needsOutputs reports whether applyDelta consumes the output delta;
	// backends keyed only on the base indexes (AllBound) skip the seeded
	// join entirely.
	needsOutputs() bool
}

// outputChange is one output-level edit in normalized head orders: the
// bound valuation and the free tuple of an output that enters or leaves.
type outputChange struct {
	vb   relation.Tuple
	free relation.Tuple
}

// outputDelta is the net effect of a change batch on the view output.
type outputDelta struct {
	adds, dels []outputChange
}

// changeKey identifies one (relation, tuple) pair; the encoded tuple is
// fixed-width per relation, so the pair is unambiguous.
type changeKey struct {
	rel string
	enc string
}

// netChanges canonicalizes a change batch against the pre-batch database:
// the last operation per tuple wins, and only tuples whose presence
// actually flips survive — an insert of a present tuple and a delete of an
// absent one are set-semantics no-ops, and a tuple churned in and out
// within the batch cancels.
func netChanges(old *relation.Database, batch []change) (ins, del map[string][]relation.Tuple, err error) {
	final := make(map[changeKey]change, len(batch))
	for _, c := range batch {
		final[changeKey{rel: c.rel, enc: string(c.tuple.AppendEncode(nil))}] = c
	}
	ins = make(map[string][]relation.Tuple)
	del = make(map[string][]relation.Tuple)
	for _, c := range final {
		r, err := old.Relation(c.rel)
		if err != nil {
			return nil, nil, err
		}
		before := r.Contains(c.tuple)
		after := !c.delete
		switch {
		case !before && after:
			ins[c.rel] = append(ins[c.rel], c.tuple)
		case before && !after:
			del[c.rel] = append(del[c.rel], c.tuple)
		}
	}
	return ins, del, nil
}

// viewEval is a seeded backtracking evaluator over a full view: given one
// changed base tuple, it enumerates every complete variable assignment
// that uses the tuple at some atom and satisfies every other atom against
// db. It works directly on the surface view and the database — not the
// compiled join.Instance — because it must run against two databases (the
// pre- and post-batch states), only one of which has compiled indexes.
type viewEval struct {
	view  *cq.View
	db    *relation.Database
	nvars int
	atoms []evalAtom
}

// evalAtom is one body atom with variables resolved to ids: vars[p] is the
// variable id at position p, or -1 where consts[p] pins a constant.
type evalAtom struct {
	name   string
	rel    *relation.Relation
	vars   []int
	consts []relation.Value
}

// newViewEval resolves the full view's atoms against db. nv supplies the
// variable-id space; it may have been normalized against a different
// database state (the orders depend only on the view).
func newViewEval(view *cq.View, nv *cq.NormalizedView, db *relation.Database) (*viewEval, error) {
	ev := &viewEval{view: view, db: db, nvars: len(nv.Vars)}
	for _, a := range view.Body {
		rel, err := db.Relation(a.Relation)
		if err != nil {
			return nil, err
		}
		ea := evalAtom{name: a.Relation, rel: rel, vars: make([]int, len(a.Terms)), consts: make([]relation.Value, len(a.Terms))}
		for p, t := range a.Terms {
			if t.IsConst {
				ea.vars[p] = -1
				ea.consts[p] = t.Const
			} else {
				id := nv.VarID(t.Var)
				if id < 0 {
					return nil, fmt.Errorf("core: delta: unknown variable %q", t.Var)
				}
				ea.vars[p] = id
			}
		}
		ev.atoms = append(ev.atoms, ea)
	}
	return ev, nil
}

// seeded calls emit for every complete assignment (indexed by variable id)
// that places tup at some occurrence of relation rel and satisfies every
// body atom against ev.db. tup must be present in ev.db — the net-change
// canonicalization guarantees it for both seeding directions.
func (ev *viewEval) seeded(rel string, tup relation.Tuple, emit func(asg []relation.Value)) {
	asg := make([]relation.Value, ev.nvars)
	set := make([]bool, ev.nvars)
	rest := make([]int, 0, len(ev.atoms))
	for seed := range ev.atoms {
		ea := &ev.atoms[seed]
		if ea.name != rel {
			continue
		}
		// Unify tup with the seed atom: constants must match, repeated
		// variables must agree.
		ok := true
		b := bound{asg: asg, set: set}
		for p, vid := range ea.vars {
			if vid < 0 {
				if ea.consts[p] != tup[p] {
					ok = false
					break
				}
				continue
			}
			if !b.bind(vid, tup[p]) {
				ok = false
				break
			}
		}
		if ok {
			rest = rest[:0]
			for j := range ev.atoms {
				if j != seed {
					rest = append(rest, j)
				}
			}
			ev.extend(asg, set, rest, emit)
		}
		b.undo()
	}
}

// bound tracks variable bindings made by one unification or row match so
// they can be undone on backtrack.
type bound struct {
	asg    []relation.Value
	set    []bool
	undoed []int
}

func (b *bound) bind(vid int, v relation.Value) bool {
	if b.set[vid] {
		return b.asg[vid] == v
	}
	b.asg[vid] = v
	b.set[vid] = true
	b.undoed = append(b.undoed, vid)
	return true
}

func (b *bound) undo() {
	for _, vid := range b.undoed {
		b.set[vid] = false
	}
	b.undoed = b.undoed[:0]
}

// extend completes a partial assignment over the remaining atoms by
// backtracking: the most constrained atom (fewest unbound variables,
// smallest relation on ties) goes first; fully bound atoms are a single
// membership probe, others scan their relation's rows.
func (ev *viewEval) extend(asg []relation.Value, set []bool, rest []int, emit func([]relation.Value)) {
	if len(rest) == 0 {
		emit(asg)
		return
	}
	best, bestUnbound := -1, -1
	for i, j := range rest {
		unbound := 0
		for _, vid := range ev.atoms[j].vars {
			if vid >= 0 && !set[vid] {
				unbound++
			}
		}
		if best < 0 || unbound < bestUnbound ||
			(unbound == bestUnbound && ev.atoms[j].rel.Len() < ev.atoms[rest[best]].rel.Len()) {
			best, bestUnbound = i, unbound
		}
		if unbound == 0 {
			break
		}
	}
	j := rest[best]
	ea := &ev.atoms[j]
	next := make([]int, 0, len(rest)-1)
	next = append(next, rest[:best]...)
	next = append(next, rest[best+1:]...)

	if bestUnbound == 0 {
		probe := make(relation.Tuple, len(ea.vars))
		for p, vid := range ea.vars {
			if vid < 0 {
				probe[p] = ea.consts[p]
			} else {
				probe[p] = asg[vid]
			}
		}
		if ea.rel.Contains(probe) {
			ev.extend(asg, set, next, emit)
		}
		return
	}
	// The relation is quiescent during delta evaluation, so its rows are
	// read in place rather than cloned per scan step.
	b := bound{asg: asg, set: set}
	for i, n := 0, ea.rel.Len(); i < n; i++ {
		row := ea.rel.Row(i)
		ok := true
		for p, vid := range ea.vars {
			if vid < 0 {
				if ea.consts[p] != row[p] {
					ok = false
					break
				}
				continue
			}
			if !b.bind(vid, row[p]) {
				ok = false
				break
			}
		}
		if ok {
			ev.extend(asg, set, next, emit)
		}
		b.undo()
	}
}

// outputDeltaFor computes the exact output delta of a change batch:
// removals seeded from net-deleted tuples over the old database (r.db),
// additions from net-inserted ones over newDB. Outputs reachable through
// several changed tuples are deduplicated.
func (r *Representation) outputDeltaFor(newDB *relation.Database, batch []change) (*outputDelta, error) {
	ins, del, err := netChanges(r.sh.db, batch)
	if err != nil {
		return nil, err
	}
	d := &outputDelta{}
	collect := func(ev *viewEval, nets map[string][]relation.Tuple, dst *[]outputChange) {
		seen := make(map[string]bool)
		for rel, tuples := range nets {
			for _, t := range tuples {
				ev.seeded(rel, t, func(asg []relation.Value) {
					oc := outputChange{
						vb:   projectIDs(asg, r.sh.nv.Bound),
						free: projectIDs(asg, r.sh.nv.Free),
					}
					key := string(oc.free.AppendEncode(oc.vb.AppendEncode(nil)))
					if !seen[key] {
						seen[key] = true
						*dst = append(*dst, oc)
					}
				})
			}
		}
	}
	if len(del) > 0 {
		ev, err := newViewEval(r.view, r.sh.nv, r.sh.db)
		if err != nil {
			return nil, err
		}
		collect(ev, del, &d.dels)
	}
	if len(ins) > 0 {
		ev, err := newViewEval(r.view, r.sh.nv, newDB)
		if err != nil {
			return nil, err
		}
		collect(ev, ins, &d.adds)
	}
	return d, nil
}

// projectIDs projects an assignment onto the given variable ids.
func projectIDs(asg []relation.Value, ids []int) relation.Tuple {
	out := make(relation.Tuple, len(ids))
	for i, id := range ids {
		out[i] = asg[id]
	}
	return out
}

// tryDelta attempts the delta-application path for an unsharded
// representation: probe the backend capability, compute the output delta,
// and install the copy-on-write backend into a fresh shell over newDB.
// Any failure (unsupported backend, delta out of reach, evaluation error)
// reports false and the caller falls back to the full recompile — the
// delta path is an optimization, never a correctness dependency.
func (r *Representation) tryDelta(newDB *relation.Database, batch []change, cfg *config) (*Representation, bool) {
	if cfg.noDelta || r.lazy != nil {
		return nil, false
	}
	da, ok := r.be.(deltaApplier)
	if !ok {
		return nil, false
	}
	start := time.Now()
	shell, err := newShell(r.orig, newDB)
	if err != nil {
		return nil, false
	}
	var d *outputDelta
	if da.needsOutputs() {
		if d, err = r.outputDeltaFor(newDB, batch); err != nil {
			return nil, false
		}
	}
	shell.strategy = r.strategy
	shell.stats.Strategy = r.strategy
	shell.stats.Shards = 1
	be, ok, err := da.applyDelta(shell, d)
	if !ok || err != nil {
		return nil, false
	}
	shell.be = be
	shell.stats.BuildTime = time.Since(start)
	return shell, true
}
