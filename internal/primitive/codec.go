package primitive

import (
	"fmt"
	"time"

	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// codec.go (de)serializes the Theorem-1 structure for the snapshot
// subsystem. Only the expensive precomputed state is written — the
// delay-balanced tree, the heavy-pair dictionary, and the parameters
// (τ, cover) that reproduce the estimator — while derived state (the
// estimator itself, the base indexes held by the join.Instance) is
// reconstructed at decode time from the base relations.

// EncodeTo appends the structure to e: τ, the exhaustive flag, the build
// time, the fractional edge cover, the tree in id (pre-)order, and the
// dictionary in its key order, so identical structures always serialize
// to identical bytes.
func (s *Structure) EncodeTo(e *relation.Encoder) {
	e.Float(s.tau)
	e.Bool(s.exhaustive)
	e.Int(int64(s.elapsed))
	e.Floats(s.est.U)

	e.Uint(uint64(len(s.nodes)))
	for _, n := range s.nodes {
		e.Uint(uint64(n.level))
		e.Tuple(n.iv.Lo)
		e.Tuple(n.iv.Hi)
		e.Bool(n.iv.LoInc)
		e.Bool(n.iv.HiInc)
		e.Tuple(n.beta)
		e.Int(linkID(n.left))
		e.Int(linkID(n.right))
	}

	s.dict.encodeTo(e)
}

// linkID returns a child pointer as an id, -1 when absent.
func linkID(n *node) int64 {
	if n == nil {
		return -1
	}
	return int64(n.id)
}

// Decode reads a structure previously written by EncodeTo, rebinding it to
// inst (freshly built from the same base relations). The estimator is
// reconstructed from the stored cover; tree links (a pre-order tree),
// intervals, and the dictionary (see decodeDict) are validated so a
// corrupt payload fails instead of producing a structure that panics or
// answers wrongly at query time.
func Decode(d *relation.Decoder, inst *join.Instance) (*Structure, error) {
	tau := d.Float()
	exhaustive := d.Bool()
	elapsed := time.Duration(d.Int())
	u := d.Floats()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if tau < 1 {
		return nil, fmt.Errorf("primitive: snapshot threshold τ = %v below 1", tau)
	}
	est, err := join.NewEstimator(inst, u)
	if err != nil {
		return nil, fmt.Errorf("primitive: snapshot cover: %w", err)
	}
	s := &Structure{inst: inst, est: est, tau: tau, exhaustive: exhaustive, elapsed: elapsed}

	mu := inst.Mu
	nNodes := d.Count(4)
	if err := d.Err(); err != nil {
		return nil, err
	}
	s.nodes = make([]*node, nNodes)
	links := make([][2]int64, nNodes)
	for i := 0; i < nNodes; i++ {
		n := &node{id: int32(i), level: int(d.Uint())}
		n.iv = interval.Interval{Lo: d.Tuple(), Hi: d.Tuple(), LoInc: d.Bool(), HiInc: d.Bool()}
		n.beta = d.Tuple()
		links[i] = [2]int64{d.Int(), d.Int()}
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(n.iv.Lo) != mu || len(n.iv.Hi) != mu {
			return nil, fmt.Errorf("primitive: snapshot node %d interval has arity %d/%d, want %d", i, len(n.iv.Lo), len(n.iv.Hi), mu)
		}
		if n.beta != nil && len(n.beta) != mu {
			return nil, fmt.Errorf("primitive: snapshot node %d split point has arity %d, want %d", i, len(n.beta), mu)
		}
		if n.level > s.maxLevel {
			s.maxLevel = n.level
		}
		s.nodes[i] = n
	}
	if err := s.linkPreorder(links); err != nil {
		return nil, err
	}
	if nNodes > 0 {
		s.root = s.nodes[0]
	}

	if s.dict, err = decodeDict(d, len(inst.NV.Bound), nNodes); err != nil {
		return nil, err
	}
	return s, nil
}

// linkPreorder installs the decoded child links after checking that they
// form the tree Build numbers: ids in pre-order from the root 0. A left
// child is the next id, a right child the first id after the left
// subtree, and the root's subtree is every node. Then every node but the
// root has exactly one parent, and Algorithm 2 visits ids in increasing
// order, which the dictionary's forward cursor relies on. Children are
// checked before their parents, so a link that breaks the order fails at
// the node that holds it.
func (s *Structure) linkPreorder(links [][2]int64) error {
	n := len(s.nodes)
	end := make([]int64, n) // one past the last id of each node's subtree
	for i := n - 1; i >= 0; i-- {
		l, r := links[i][0], links[i][1]
		for _, id := range links[i] {
			if id != -1 && (id <= int64(i) || id >= int64(n)) {
				return fmt.Errorf("primitive: snapshot node %d has invalid child link %d", i, id)
			}
		}
		end[i] = int64(i) + 1
		if l != -1 {
			if l != end[i] {
				return fmt.Errorf("primitive: snapshot node %d has left child %d, want %d", i, l, end[i])
			}
			s.nodes[i].left = s.nodes[l]
			end[i] = end[l]
		}
		if r != -1 {
			if r != end[i] {
				return fmt.Errorf("primitive: snapshot node %d has right child %d, want %d", i, r, end[i])
			}
			s.nodes[i].right = s.nodes[r]
			end[i] = end[r]
		}
	}
	if n > 0 && end[0] != int64(n) {
		return fmt.Errorf("primitive: snapshot nodes %d to %d are unreachable from the root", end[0], n-1)
	}
	return nil
}
