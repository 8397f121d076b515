package workload

import (
	"math/rand"

	"cqrep/internal/relation"
)

// ChurnOp is one scripted base-relation update: an insert or a delete of
// Tuple in Rel. Scripts are plain data so the same sequence can drive a
// core.Maintained, a WAL replay, a difftest gate, and cmd/cqchurn and be
// compared step for step.
type ChurnOp struct {
	Rel   string
	Tuple relation.Tuple
	Del   bool
}

// ChurnScript generates a deterministic update script over the named
// relations of db. Each step picks a relation uniformly and then:
//
//   - with probability ~0.25, deletes a tuple currently present (tracked
//     against db plus the script's own prior effects, so these deletes are
//     real removals, not no-ops);
//   - with probability ~0.05, deletes a uniformly random tuple — usually
//     absent, deliberately exercising the no-op-delete path;
//   - otherwise inserts a tuple whose first column is Zipf(1.1)-skewed
//     over the domain (hub-heavy churn, the regime where bucket-local
//     delta maintenance beats recompilation) and whose remaining columns
//     are uniform.
//
// The script depends only on (seed, db contents, rels, domain, steps);
// db itself is not mutated. Callers replay the ops in order.
func ChurnScript(seed int64, db *relation.Database, rels []string, domain, steps int) ([]ChurnOp, error) {
	rng := rand.New(rand.NewSource(seed))
	z := NewZipf(domain, 1.1)

	// Live tuple sets per relation, seeded from db and maintained under
	// the script's own ops so "delete something present" stays honest.
	type state struct {
		arity int
		keys  map[string]int // encoded tuple -> index in list
		list  []relation.Tuple
	}
	states := make(map[string]*state, len(rels))
	for _, name := range rels {
		r, err := db.Relation(name)
		if err != nil {
			return nil, err
		}
		st := &state{arity: r.Arity(), keys: make(map[string]int)}
		for _, t := range r.Tuples() {
			st.keys[string(t.AppendEncode(nil))] = len(st.list)
			st.list = append(st.list, t.Clone())
		}
		states[name] = st
	}

	randTuple := func(st *state, skewed bool) relation.Tuple {
		t := make(relation.Tuple, st.arity)
		for i := range t {
			if i == 0 && skewed {
				t[i] = relation.Value(z.Draw(rng))
			} else {
				t[i] = relation.Value(rng.Intn(domain))
			}
		}
		return t
	}

	ops := make([]ChurnOp, 0, steps)
	for i := 0; i < steps; i++ {
		name := rels[rng.Intn(len(rels))]
		st := states[name]
		roll := rng.Float64()
		switch {
		case roll < 0.25 && len(st.list) > 0:
			j := rng.Intn(len(st.list))
			t := st.list[j]
			delete(st.keys, string(t.AppendEncode(nil)))
			// Swap-remove; fix the moved tuple's index.
			last := len(st.list) - 1
			st.list[j] = st.list[last]
			st.list = st.list[:last]
			if j < last {
				st.keys[string(st.list[j].AppendEncode(nil))] = j
			}
			ops = append(ops, ChurnOp{Rel: name, Tuple: t, Del: true})
		case roll < 0.30:
			ops = append(ops, ChurnOp{Rel: name, Tuple: randTuple(st, false), Del: true})
			// Usually a no-op; if it did hit a present tuple, track it.
			t := ops[len(ops)-1].Tuple
			if j, ok := st.keys[string(t.AppendEncode(nil))]; ok {
				delete(st.keys, string(t.AppendEncode(nil)))
				last := len(st.list) - 1
				st.list[j] = st.list[last]
				st.list = st.list[:last]
				if j < last {
					st.keys[string(st.list[j].AppendEncode(nil))] = j
				}
			}
		default:
			t := randTuple(st, true)
			k := string(t.AppendEncode(nil))
			if _, ok := st.keys[k]; !ok {
				st.keys[k] = len(st.list)
				st.list = append(st.list, t)
			}
			ops = append(ops, ChurnOp{Rel: name, Tuple: t, Del: false})
		}
	}
	return ops, nil
}
