package primitive

import (
	"context"
	"slices"

	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// walk.go: the heavy-pair dictionary from one pass over the candidate join
// of Proposition 13 (Appendix A's L_I).
//
// A node's candidates are the bound valuations of the E_Vb join's
// witnesses whose free tuple lies in the node's interval. A child's
// interval lies inside its parent's, so enumerating the join per node
// walks it once per tree level. Where join.Witnessed holds, walkDictionary
// enumerates it once over the root interval instead. Sorted by valuation,
// the witnesses give each valuation's candidate nodes as the union of its
// free tuples' descent paths, which hold exactly the nodes whose intervals
// contain the tuples, and the entries come out in the table's own order:
// valuations ascending, node ids ascending within one.

// child returns the child of n whose interval holds ft, a tuple of n's
// interval, or nil when n is a leaf or ft is n's split point β, which lies
// in neither child.
func (n *node) child(ft relation.Tuple) *node {
	if n.beta == nil {
		return nil
	}
	switch c := ft.Compare(n.beta); {
	case c < 0:
		return n.left
	case c > 0:
		return n.right
	}
	return nil
}

// walkChunk is how many valuations a dictionary worker takes at a time.
const walkChunk = 64

// walkDictionary builds the dictionary from one walk of the E_Vb join.
// Workers take the distinct valuations in chunks of walkChunk; each chunk's
// entries land in its own slot and the slots are joined in valuation
// order, so the table is the same for every worker count. Workers poll ctx
// per chunk.
func (s *Structure) walkDictionary(ctx context.Context, workers int) error {
	nb, mu := len(s.inst.NV.Bound), s.inst.Mu
	stride := nb + mu
	ws, err := s.walkWitnesses(ctx, workers)
	if err != nil {
		return err
	}
	// The witnesses by valuation: groups[g] is where valuation g's start
	// in order.
	vbOf := func(i int32) []uint64 { return ws[int(i)*stride : int(i)*stride+nb] }
	order := make([]int32, len(ws)/stride)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return compareWords(vbOf(a), vbOf(b)) })
	var groups []int
	for k := range order {
		if k == 0 || compareWords(vbOf(order[k-1]), vbOf(order[k])) != 0 {
			groups = append(groups, k)
		}
	}
	groups = append(groups, len(order))

	// Every node's boxes and threshold, read by all workers.
	var (
		boxes []interval.Box
		boxAt = make([]int, len(s.nodes)+1)
		tauL  = make([]float64, len(s.nodes))
	)
	for i, nd := range s.nodes {
		boxes = interval.AppendDecompose(boxes, nd.iv)
		boxAt[i+1] = len(boxes)
		tauL[i] = s.levelThreshold(nd.level)
	}
	allBound := true
	for _, a := range s.inst.Atoms {
		allBound = allBound && len(a.BoundCols) > 0
	}

	nvals := len(groups) - 1
	results := make([]chunkEntries, (nvals+walkChunk-1)/walkChunk)
	err = parallel(ctx, workers, len(results), func() func(c int) {
		h := s.newHeavyTest()
		seen := make([]int, len(s.nodes)) // per node: 1 + the last valuation that reached it
		ft, vb := make(relation.Tuple, mu), make(relation.Tuple, nb)
		var ids []int32
		return func(c int) {
			out := &results[c]
			for g := c * walkChunk; g < min((c+1)*walkChunk, nvals); g++ {
				// The valuation's candidate nodes: the union of its
				// witnesses' descent paths, in id order.
				ids = ids[:0]
				for _, i := range order[groups[g]:groups[g+1]] {
					for k := range ft {
						ft[k] = relation.Value(ws[int(i)*stride+nb+k])
					}
					for nd := s.root; nd != nil; nd = nd.child(ft) {
						if seen[nd.id] != g+1 {
							seen[nd.id] = g + 1
							ids = append(ids, nd.id)
						}
					}
				}
				slices.Sort(ids)
				words := vbOf(order[groups[g]])
				for k, w := range words {
					vb[k] = relation.Value(w)
				}
				h.bind(vb)
				count := 0
				for _, id := range ids {
					if bit, heavy := h.entry(boxes[boxAt[id]:boxAt[id+1]], tauL[id], allBound); heavy {
						out.ids = append(out.ids, id)
						out.bits = append(out.bits, bit)
						count++
					}
				}
				if count > 0 {
					out.vals = append(out.vals, words...)
					out.counts = append(out.counts, int32(count))
				}
			}
		}
	})
	if err != nil {
		return err
	}
	s.dict = joinChunks(nb, results)
	return nil
}

// walkWitnesses enumerates the E_Vb join over the root interval and
// returns each witness as its valuation's words followed by its free
// tuple's. The tree's nodes log2(4·workers) levels down and the split
// points above them partition the root interval into pieces that the
// tree's splits balanced by the join's cost estimate, so workers enumerate
// the pieces and the results are joined in piece order. Each polls ctx
// every 64 witnesses.
func (s *Structure) walkWitnesses(ctx context.Context, workers int) ([]uint64, error) {
	depth := 0
	for workers > 1 && 1<<depth < 4*workers {
		depth++
	}
	pieces := s.pieces(nil, s.root, depth)
	parts := make([][]uint64, len(pieces))
	err := parallel(ctx, workers, len(pieces), func() func(p int) {
		steps := 0
		return func(p int) {
			for _, b := range interval.Decompose(pieces[p]) {
				join.BoundWitnesses(s.inst, b, func(ft, vb relation.Tuple) bool {
					if steps++; steps&0x3f == 0 && ctx.Err() != nil {
						return false
					}
					for _, v := range vb {
						parts[p] = append(parts[p], uint64(v))
					}
					for _, v := range ft {
						parts[p] = append(parts[p], uint64(v))
					}
					return true
				})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(parts...), nil
}

// pieces appends to dst the intervals that partition n's interval: the
// intervals of n's descendants depth levels down (or of leaves above
// that), with the split points between them as unit intervals, in order.
func (s *Structure) pieces(dst []interval.Interval, n *node, depth int) []interval.Interval {
	if depth == 0 || n.beta == nil {
		return append(dst, n.iv)
	}
	if n.left != nil {
		dst = s.pieces(dst, n.left, depth-1)
	}
	dst = append(dst, interval.Unit(n.beta))
	if n.right != nil {
		dst = s.pieces(dst, n.right, depth-1)
	}
	return dst
}

// chunkEntries is the dictionary part of one chunk of valuations: its
// heavy valuations' words in order, each one's entry count, and the
// entries' node ids and bits.
type chunkEntries struct {
	vals   []uint64
	counts []int32
	ids    []int32
	bits   []byte
}

// joinChunks concatenates chunk parts, given in valuation order, into the
// table.
func joinChunks(nb int, chunks []chunkEntries) dict {
	nv, n := 0, 0
	for _, c := range chunks {
		nv += len(c.counts)
		n += len(c.ids)
	}
	t := emptyDict(nb)
	t.vals = make([]uint64, 0, nv*nb)
	t.off = make([]int32, 1, nv+1)
	t.ids = make([]int32, 0, n)
	t.bits = make([]byte, 0, n)
	for _, c := range chunks {
		t.vals = append(t.vals, c.vals...)
		for _, k := range c.counts {
			t.off = append(t.off, t.off[len(t.off)-1]+k)
		}
		t.ids = append(t.ids, c.ids...)
		t.bits = append(t.bits, c.bits...)
	}
	t.live = n
	t.index()
	return t
}
