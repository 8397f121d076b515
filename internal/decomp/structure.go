package decomp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/fractional"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/primitive"
	"cqrep/internal/relation"
)

// bag holds the per-bag machinery of the Theorem-2 structure: the bag-local
// instance over projected relations and, when the bag introduces free
// variables, a Theorem-1 structure tuned to the bag's delay exponent.
type bag struct {
	id        int
	vars      []int // global variable ids, ascending
	boundVars []int // V^t_b, ascending global ids
	freeVars  []int // V^t_f, ascending global ids
	inst      *join.Instance
	prim      *primitive.Structure // nil when the bag has no free variables
	tau       float64
}

// Structure is the compressed representation of Theorem 2: one Theorem-1
// structure per bag of a V_b-connex tree decomposition, with dictionaries
// refined by bottom-up semijoins (Algorithm 4). Access requests are
// answered by Algorithm 5 with delay O~(|D|^h), h the δ-height.
//
// Once Build returns, a Structure is immutable and safe for concurrent
// Query callers.
type Structure struct {
	nv    *cq.NormalizedView
	gInst *join.Instance
	dec   *Decomposition
	delta []float64
	bags  []*bag // aligned with dec.Bags; index 0 nil

	pre       []int // non-root bags in pre-order
	posOf     []int // bag id -> position in pre (-1 for root)
	parentPos []int // per pre position: position of parent bag, -1 when root

	widths  BagWidths
	dbSize  int
	elapsed time.Duration
}

// BuildOption customizes the construction without affecting the built
// structure.
type BuildOption func(*buildConfig)

type buildConfig struct {
	workers int
	ctx     context.Context
}

// Workers bounds the number of goroutines used to build decomposition bags
// (and, within each bag, its Theorem-1 dictionary). n <= 0 means
// runtime.GOMAXPROCS(0). Bags land in id-indexed slots and the Algorithm-4
// refinement stays sequential, so the structure is identical for every
// worker count.
func Workers(n int) BuildOption { return func(c *buildConfig) { c.workers = n } }

// Context arms Build with a cancellation context: the bag pool stops
// pulling work, in-flight per-bag Theorem-1 builds abort, and the
// Algorithm-4 refinement stops, with Build returning ctx.Err(). A nil ctx
// means context.Background().
func Context(ctx context.Context) BuildOption { return func(c *buildConfig) { c.ctx = ctx } }

// Build constructs the Theorem-2 structure for a join instance's normalized
// view under the given connex decomposition and delay assignment δ (indexed
// by bag; δ[0] is ignored and treated as 0). Bag thresholds are
// τ_t = |D|^{δ(t)}. The structure keeps gInst: its queries read the
// whole-view indexes.
func Build(gInst *join.Instance, dec *Decomposition, delta []float64, opts ...BuildOption) (*Structure, error) {
	nv := gInst.NV
	h := nv.Hypergraph()
	if err := dec.Validate(h, nv.Bound); err != nil {
		return nil, err
	}
	if len(delta) != len(dec.Bags) {
		return nil, fmt.Errorf("decomp: delay assignment has %d entries for %d bags", len(delta), len(dec.Bags))
	}
	for t := 1; t < len(delta); t++ {
		if delta[t] < 0 {
			return nil, fmt.Errorf("decomp: negative delay exponent %v at bag %d", delta[t], t)
		}
	}
	cfg := buildConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ctx == nil {
		cfg.ctx = context.Background()
	}
	start := time.Now()
	widths, err := dec.Widths(h, delta)
	if err != nil {
		return nil, err
	}
	s := &Structure{
		nv:     nv,
		gInst:  gInst,
		dec:    dec,
		delta:  delta,
		bags:   make([]*bag, len(dec.Bags)),
		widths: widths,
		dbSize: databaseSize(nv),
	}
	// Bags are independent until the Algorithm-4 refinement, so a bounded
	// pool of workers pulls bag ids from a shared counter; the refinement
	// below stays sequential (post-order dependencies). The total worker
	// budget is split between the bag pool and each bag's inner dictionary
	// pool so that bag-pool × inner never exceeds cfg.workers.
	poolSize := cfg.workers
	if poolSize > len(dec.Bags)-1 {
		poolSize = len(dec.Bags) - 1
	}
	inner := 1
	if poolSize > 0 {
		inner = cfg.workers / poolSize
		if inner < 1 {
			inner = 1
		}
	}
	errs := make([]error, len(dec.Bags))
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(1) // bag 0 is the root placeholder
	for w := 0; w < poolSize; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(dec.Bags) || cfg.ctx.Err() != nil {
					return
				}
				b, err := s.buildBag(cfg.ctx, t, h, inner)
				if err != nil {
					errs[t] = err
					continue
				}
				s.bags[t] = b
			}
		}()
	}
	wg.Wait()
	if err := cfg.ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.indexTraversal()
	if err := s.refineDictionaries(cfg.ctx); err != nil {
		return nil, err
	}
	s.elapsed = time.Since(start)
	return s, nil
}

// indexTraversal derives the Algorithm-5 traversal tables (pre-order,
// position-of, parent-position) from the decomposition.
func (s *Structure) indexTraversal() {
	s.pre = s.dec.Preorder()
	s.posOf = make([]int, len(s.dec.Bags))
	for i := range s.posOf {
		s.posOf[i] = -1
	}
	for i, t := range s.pre {
		s.posOf[t] = i
	}
	s.parentPos = make([]int, len(s.pre))
	for i, t := range s.pre {
		p := s.dec.Parent[t]
		if p == 0 {
			s.parentPos[i] = -1
		} else {
			s.parentPos[i] = s.posOf[p]
		}
	}
}

// databaseSize is |D|: total tuples over the distinct base relations.
func databaseSize(nv *cq.NormalizedView) int {
	seen := make(map[*relation.Relation]bool)
	total := 0
	for _, a := range nv.Atoms {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			total += a.Rel.Len()
		}
	}
	return total
}

// buildBag projects the touching relations onto the bag and assembles its
// instance and (when free variables exist) its Theorem-1 structure with the
// eq. (3)-optimal cover.
func (s *Structure) buildBag(ctx context.Context, t int, h cq.Hypergraph, workers int) (*bag, error) {
	b, localU, err := s.assembleBag(t, h)
	if err != nil {
		return nil, err
	}
	if len(b.freeVars) == 0 {
		return b, nil
	}
	// Rescale the LP cover so rounding never drops below exact coverage.
	localU = normalizeCover(b.inst.NV.Hypergraph(), localU)
	b.tau = math.Max(1, math.Pow(float64(s.dbSize), s.delta[t]))
	b.prim, err = primitive.Build(b.inst, localU, b.tau, primitive.Workers(workers), primitive.Context(ctx))
	if err != nil {
		return nil, fmt.Errorf("decomp: bag %d structure: %w", t, err)
	}
	return b, nil
}

// assembleBag builds the derived (cheap, deterministic) bag state shared
// by Build and snapshot Decode: the projected relations, the bag-local
// view and instance, and the eq. (3) cover restricted to the bag's edges.
// The expensive Theorem-1 structure is attached by the caller — compiled
// by buildBag, decoded from a snapshot by Decode.
func (s *Structure) assembleBag(t int, h cq.Hypergraph) (*bag, fractional.Cover, error) {
	dec := s.dec
	b := &bag{
		id:        t,
		vars:      sortedCopy(dec.Bags[t]),
		boundVars: dec.BoundOf(t),
		freeVars:  dec.FreeOf(t),
	}
	inBag := make(map[int]bool)
	for _, v := range b.vars {
		inBag[v] = true
	}
	edges := h.EdgesTouching(dec.Bags[t])

	db := relation.NewDatabase()
	view := &cq.View{Name: fmt.Sprintf("bag%d", t)}
	for _, v := range b.boundVars {
		view.Head = append(view.Head, s.nv.Vars[v])
		view.Pattern = append(view.Pattern, cq.Bound)
	}
	for _, v := range b.freeVars {
		view.Head = append(view.Head, s.nv.Vars[v])
		view.Pattern = append(view.Pattern, cq.Free)
	}
	localU := make(fractional.Cover, 0, len(edges))
	globalU := s.widths.PerBag[t].U
	for k, ei := range edges {
		atom := s.nv.Atoms[ei]
		var cols []int
		var terms []cq.Term
		for col, id := range atom.Vars {
			if inBag[id] {
				cols = append(cols, col)
				terms = append(terms, cq.V(s.nv.Vars[id]))
			}
		}
		name := fmt.Sprintf("b%d_%s_%d", t, atom.Rel.Name(), k)
		db.Add(atom.Rel.Project(name, cols))
		view.Body = append(view.Body, cq.Atom{Relation: name, Terms: terms})
		if globalU != nil {
			localU = append(localU, globalU[ei])
		} else {
			localU = append(localU, 1)
		}
	}
	nvBag, err := cq.Normalize(view, db)
	if err != nil {
		return nil, nil, fmt.Errorf("decomp: bag %d view: %w", t, err)
	}
	b.inst, err = join.NewInstance(nvBag)
	if err != nil {
		return nil, nil, err
	}
	// Bag requests walk the bag instance, so none may pay for its sorts.
	b.inst.Complete()
	return b, localU, nil
}

// normalizeCover divides a near-cover by its minimum coverage so LP
// rounding error cannot invalidate it, falling back to all-ones when
// degenerate.
func normalizeCover(h cq.Hypergraph, u fractional.Cover) fractional.Cover {
	all := make([]int, h.N)
	for i := range all {
		all[i] = i
	}
	minCov := math.Inf(1)
	for _, x := range all {
		c := 0.0
		for e, edge := range h.Edges {
			for _, v := range edge {
				if v == x {
					c += u[e]
					break
				}
			}
		}
		if c < minCov {
			minCov = c
		}
	}
	if minCov < 0.5 || math.IsInf(minCov, 1) {
		return fractional.AllOnes(h)
	}
	if minCov >= 1 {
		return u
	}
	out := make(fractional.Cover, len(u))
	for i, w := range u {
		out[i] = w / minCov
	}
	return out
}

// refineDictionaries runs Algorithm 4: processing bags bottom-up
// (post-order), each non-root bag t with a non-root parent re-validates the
// parent's 1-entries — an entry survives only if some parent-bag output
// tuple within the entry's interval has a non-empty continuation in t.
// ctx is polled once per refined entry; on cancellation the remaining
// entries are left as-is (the half-refined structure is discarded by the
// caller) and ctx.Err() is returned.
func (s *Structure) refineDictionaries(ctx context.Context) error {
	post := s.postorder()
	for _, t := range post {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := s.dec.Parent[t]
		if t == 0 || p == 0 {
			continue
		}
		parent := s.bags[p]
		if parent.prim == nil {
			continue
		}
		child := s.bags[t]
		// Mapping from parent full valuation (bound + free) to the child's
		// bound tuple.
		pick := makePicker(parent, child)
		parent.prim.RefineOnes(func(_ int32, iv interval.Interval, vbParent relation.Tuple) bool {
			if ctx.Err() != nil {
				return true // keep unchanged; the whole build is abandoned
			}
			for _, box := range interval.Decompose(iv) {
				en := join.NewEnum(parent.inst, vbParent, box)
				for {
					k, ok := en.Next()
					if !ok {
						break
					}
					vtb := pick(vbParent, k)
					if it := s.bagQuery(child, vtb); it.next() {
						return true
					}
				}
			}
			return false
		})
	}
	return ctx.Err()
}

// postorder returns non-root bags with every bag after its whole subtree.
func (s *Structure) postorder() []int {
	var out []int
	var walk func(t int)
	walk = func(t int) {
		for _, c := range s.dec.Children(t) {
			walk(c)
		}
		if t != 0 {
			out = append(out, t)
		}
	}
	walk(0)
	return out
}

// makePicker compiles the projection from a parent-bag valuation
// (vbParent over parent.boundVars, k over parent.freeVars) onto the child's
// bound variables.
func makePicker(parent, child *bag) func(vb, k relation.Tuple) relation.Tuple {
	type src struct {
		fromFree bool
		idx      int
	}
	srcs := make([]src, len(child.boundVars))
	for i, v := range child.boundVars {
		found := false
		for j, pv := range parent.boundVars {
			if pv == v {
				srcs[i] = src{false, j}
				found = true
				break
			}
		}
		if !found {
			for j, pv := range parent.freeVars {
				if pv == v {
					srcs[i] = src{true, j}
					found = true
					break
				}
			}
		}
		if !found {
			panic(fmt.Sprintf("decomp: child bound variable %d not in parent bag (running intersection violated)", v))
		}
	}
	return func(vb, k relation.Tuple) relation.Tuple {
		out := make(relation.Tuple, len(srcs))
		for i, sc := range srcs {
			if sc.fromFree {
				out[i] = k[sc.idx]
			} else {
				out[i] = vb[sc.idx]
			}
		}
		return out
	}
}

// bagIterator abstracts per-bag enumeration: Theorem-1 iterators for bags
// with free variables, a one-shot membership check otherwise.
type bagIterator struct {
	prim *primitive.Iter
	// oneShot state for bags without free variables.
	fired bool
	pass  bool
	last  relation.Tuple
}

func (s *Structure) bagQuery(b *bag, vtb relation.Tuple) *bagIterator {
	if b.prim != nil {
		return &bagIterator{prim: b.prim.Query(vtb)}
	}
	return &bagIterator{pass: b.inst.CheckAllBoundAtoms(vtb)}
}

// next advances the iterator; the yielded free tuple is in last.
func (it *bagIterator) next() bool {
	if it.prim != nil {
		t, ok := it.prim.Next()
		it.last = t
		return ok
	}
	if it.fired || !it.pass {
		return false
	}
	it.fired = true
	it.last = relation.Tuple{}
	return true
}

// Stats aggregates the space of the per-bag structures.
type Stats struct {
	// Bags is the number of non-root bags.
	Bags int
	// TreeNodes and DictEntries sum the per-bag Theorem-1 footprints.
	TreeNodes   int
	DictEntries int
	Bytes       int
	// Width and Height are the δ-width and δ-height of the decomposition;
	// UStar is the compression-time exponent u*.
	Width  float64
	Height float64
	UStar  float64
	// BuildTime is the total preprocessing time.
	BuildTime time.Duration
}

// Stats reports the structure's aggregate size counters.
func (s *Structure) Stats() Stats {
	st := Stats{
		Bags:      len(s.dec.Bags) - 1,
		Width:     s.widths.Width,
		Height:    s.dec.DeltaHeight(s.delta),
		UStar:     s.widths.UStar,
		BuildTime: s.elapsed,
	}
	for _, b := range s.bags {
		if b == nil || b.prim == nil {
			continue
		}
		ps := b.prim.Stats()
		st.TreeNodes += ps.TreeNodes
		st.DictEntries += ps.DictEntries
		st.Bytes += ps.Bytes
	}
	return st
}

// EnumOrder returns the decomposition-induced enumeration order as output
// tuple positions, most significant first: bags in pre-order, each
// contributing the free variables it introduces in ascending id order —
// Algorithm 5's nested-loop order. Composite backends (sharding) use it to
// merge independent enumerations without breaking the global order.
func (s *Structure) EnumOrder() []int {
	pos := make(map[int]int, len(s.nv.Free))
	for i, id := range s.nv.Free {
		pos[id] = i
	}
	out := make([]int, 0, len(s.nv.Free))
	for _, t := range s.pre {
		for _, v := range s.bags[t].freeVars {
			out = append(out, pos[v])
		}
	}
	return out
}

// Decomposition returns the underlying connex decomposition.
func (s *Structure) Decomposition() *Decomposition { return s.dec }

// DBSize returns |D| as used for the bag thresholds.
func (s *Structure) DBSize() int { return s.dbSize }

// BagTaus lists the per-bag thresholds τ_t = |D|^{δ(t)} (0 for the root and
// for bags without free variables).
func (s *Structure) BagTaus() []float64 {
	out := make([]float64, len(s.bags))
	for t, b := range s.bags {
		if b != nil {
			out[t] = b.tau
		}
	}
	return out
}
