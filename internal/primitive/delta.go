package primitive

import (
	"slices"

	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// delta.go: delta maintenance for the delay-balanced tree. The structure
// cannot be incrementally re-balanced — the estimator-driven splits depend
// globally on the data — but it does not have to be: enumeration
// correctness rests on a weaker invariant than structural freshness.
// Algorithm 2 reads the dictionary three ways (enum.go):
//
//   - ⊥ (no entry): the node's whole interval is evaluated directly with
//     the worst-case-optimal enumerator over the *current* instance —
//     always correct, merely not delay-bounded for pairs that turned heavy.
//   - bit 1: recurse into the children and re-check β against the current
//     instance — correct even if the subtree emptied out (the traversal
//     just finds nothing); only slower than a fresh 0 would be.
//   - bit 0: the subtree is pruned. This is the single way a stale
//     dictionary loses answers: a pair recorded empty that an inserted
//     tuple made non-empty.
//
// DeltaRebase therefore rebases the tree and dictionary onto the updated
// instance wholesale and repairs exactly the dangerous direction: for
// every net-added output it walks the root-to-leaf containment chain of
// the output's free tuple, comparing it with each split point β as the
// dictionary build does (node.child), and invalidates any 0-entry for the output's
// bound valuation along it (⊥ re-evaluates, which is correct): the entry
// is marked absent in a copy of the bit array, while the valuations, the
// id lists and the slot index stay shared with the receiver. Deletions
// need no dictionary work at all, and the delay guarantee degrades
// gracefully — amortized rebuilds (Maintained's existing policy) restore
// it.

// DeltaRebase returns a Structure answering queries over inst — the same
// normalized view compiled over an updated database — reusing this
// structure's tree and dictionary copy-on-write. addVb/addFree are the
// net-added outputs as parallel (bound valuation, free tuple) slices; net
// deletions require no repair. ok is false when the delta is out of the
// tree's reach — no tree was built (the old free domain was empty), or an
// added output falls outside the root interval — and the caller must
// recompile. The receiver stays untouched and fully queryable.
func (s *Structure) DeltaRebase(inst *join.Instance, addVb, addFree []relation.Tuple) (*Structure, bool) {
	if s.root == nil {
		return nil, false
	}
	out := &Structure{
		inst: inst, est: s.est, tau: s.tau,
		root: s.root, nodes: s.nodes, maxLevel: s.maxLevel,
		dict: s.dict, exhaustive: s.exhaustive,
	}
	var stale []int
	for i, ft := range addFree {
		if !s.root.iv.Contains(ft) {
			return nil, false
		}
		// The chain descends to ever larger ids, so the valuation's entry
		// range is walked forward like a request's.
		cur, end := s.dict.span(addVb[i])
		for n := s.root; n != nil && cur < end; {
			var bit byte
			var heavy bool
			if bit, heavy, cur = s.dict.at(cur, end, n.id); heavy && bit == 0 {
				stale = append(stale, cur-1)
			}
			// child is nil at a leaf and where ft is the split point β
			// itself; β is re-checked against the live instance on every
			// enumeration, so descent (and repair) stops there.
			n = n.child(ft)
		}
	}
	if len(stale) > 0 {
		// Copy-on-write: only the bits change, so the rebase shares the
		// receiver's valuations, id lists and slot index.
		out.dict.bits = slices.Clone(s.dict.bits)
		for _, e := range stale {
			if out.dict.bits[e] != absent {
				out.dict.bits[e] = absent
				out.dict.live--
			}
		}
	}
	return out, true
}
