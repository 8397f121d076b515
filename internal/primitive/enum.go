package primitive

import (
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// Iter enumerates the answer of one access request Q^η[v_b] in
// lexicographic order with the delay guarantees of Theorem 1, implementing
// Algorithm 2 as a pull iterator: an explicit stack traverses the
// delay-balanced tree, consulting the dictionary at every node; light (⊥)
// nodes are evaluated with the worst-case-optimal enumerator, heavy 1-nodes
// recurse, and 0-nodes are skipped.
//
// The request's valuation is looked up in the dictionary once. Its entry
// range then serves as a cursor: the traversal visits nodes in increasing
// pre-order id, so each node's entry is found by seeking forward from the
// last one. The traversal allocates nothing per node: one join.Enum per
// request is reset onto every light box and answers every split-point
// check, so each atom's bound-prefix range is sought once per request, and
// light intervals are decomposed into a box slice the iterator owns. Only
// the answers are allocated.
type Iter struct {
	s  *Structure
	vb relation.Tuple

	stack   []frame
	en      *join.Enum // the request's enumerator: ⊥ boxes and β checks
	boxes   []interval.Box
	boxIdx  int
	ops     uint64
	cur     int // the dictionary entries of vb not yet passed: [cur, end)
	end     int
	inSub   bool // en is enumerating boxes[boxIdx]
	started bool
	done    bool
}

type frame struct {
	n     *node
	state int8 // 0: consult dictionary, 1: left done, 2: unit done, 3: exit
}

// Query returns an iterator over the result of the access request with
// bound valuation vb (in the view's bound-variable order).
func (s *Structure) Query(vb relation.Tuple) *Iter {
	return &Iter{s: s, vb: vb}
}

// Ops returns the number of index and dictionary probes performed so far —
// the machine-independent work counter behind the delay measurements.
func (it *Iter) Ops() uint64 {
	if it.en != nil {
		return it.ops + it.en.Ops()
	}
	return it.ops
}

func (it *Iter) push(n *node) { it.stack = append(it.stack, frame{n: n}) }

func (it *Iter) pop() { it.stack = it.stack[:len(it.stack)-1] }

// Next returns the next output tuple over the free variables, or false when
// the enumeration has completed.
func (it *Iter) Next() (relation.Tuple, bool) {
	if it.done {
		return nil, false
	}
	if !it.started {
		it.started = true
		if it.s.root == nil || len(it.vb) != len(it.s.inst.NV.Bound) || !it.s.inst.CheckAllBoundAtoms(it.vb) {
			it.done = true
			return nil, false
		}
		it.stack = make([]frame, 0, it.s.maxLevel+1)
		it.cur, it.end = it.s.dict.span(it.vb)
		it.en = join.NewEnum(it.s.inst, it.vb, interval.Box{})
		it.push(it.s.root)
	}
	for {
		if it.inSub {
			if t, ok := it.en.Next(); ok {
				return t, true
			}
			it.boxIdx++
			if it.boxIdx < len(it.boxes) {
				it.en.Reset(it.boxes[it.boxIdx])
				continue
			}
			it.inSub = false
			it.pop()
			continue
		}
		if len(it.stack) == 0 {
			it.done = true
			return nil, false
		}
		f := &it.stack[len(it.stack)-1]
		n := f.n
		switch f.state {
		case 0:
			it.ops++
			var bit byte
			var heavy bool
			bit, heavy, it.cur = it.s.dict.at(it.cur, it.end, n.id)
			if !heavy {
				// ⊥: the pair is light; evaluate the whole interval with
				// the worst-case-optimal enumerator (time O(τ_ℓ)).
				f.state = 3
				if it.boxes == nil {
					it.boxes = make([]interval.Box, 0, 2*it.s.inst.Mu+1)
				}
				it.boxes = interval.AppendDecompose(it.boxes[:0], n.iv)
				it.boxIdx = 0
				if len(it.boxes) > 0 {
					it.en.Reset(it.boxes[0])
					it.inSub = true
				} else {
					it.pop()
				}
				continue
			}
			if bit == 0 {
				it.pop()
				continue
			}
			f.state = 1
			if n.left != nil {
				it.push(n.left)
			}
		case 1:
			f.state = 2
			it.ops++
			if n.beta != nil && it.en.Contains(n.beta) {
				return n.beta.Clone(), true
			}
		case 2:
			f.state = 3
			if n.right != nil {
				it.push(n.right)
			}
		case 3:
			it.pop()
		}
	}
}

// Drain collects all remaining tuples of the iterator.
func (it *Iter) Drain() []relation.Tuple {
	var out []relation.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}
