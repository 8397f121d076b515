package join

import (
	"sort"

	"cqrep/internal/interval"
	"cqrep/internal/relation"
)

// NaiveJoin computes the same result as draining an Enum — the sorted,
// distinct free-variable valuations of ⋈_F R_F(v_b) ⋉ B — by exhaustive
// nested-loop search. It exists as a correctness oracle for tests and
// validation harnesses; production code paths use Enum.
func NaiveJoin(inst *Instance, vb relation.Tuple, box interval.Box) []relation.Tuple {
	nv := inst.NV
	total := len(nv.Vars)
	assigned := make([]bool, total)
	vals := make(relation.Tuple, total)
	for i, id := range nv.Bound {
		assigned[id] = true
		vals[id] = vb[i]
	}
	seen := make(map[string]relation.Tuple)

	var rec func(ai int)
	rec = func(ai int) {
		if ai == len(nv.Atoms) {
			ft := make(relation.Tuple, len(nv.Free))
			for d, id := range nv.Free {
				if !assigned[id] {
					return // disconnected free variable; cannot happen for normalized views
				}
				ft[d] = vals[id]
			}
			if !box.Contains(ft) {
				return
			}
			seen[string(ft.AppendEncode(nil))] = ft
			return
		}
		atom := nv.Atoms[ai]
		for i, n := 0, atom.Rel.Len(); i < n; i++ {
			row := atom.Rel.Row(i)
			ok := true
			var fixed []int
			for col, id := range atom.Vars {
				if assigned[id] {
					if vals[id] != row[col] {
						ok = false
						break
					}
				} else {
					assigned[id] = true
					vals[id] = row[col]
					fixed = append(fixed, id)
				}
			}
			if ok {
				rec(ai + 1)
			}
			for _, id := range fixed {
				assigned[id] = false
			}
		}
	}
	rec(0)

	out := make([]relation.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
