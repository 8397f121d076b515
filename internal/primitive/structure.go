package primitive

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"cqrep/internal/fractional"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// node is one vertex of the delay-balanced tree. Leaves have beta == nil.
type node struct {
	id          int32
	level       int
	iv          interval.Interval
	beta        relation.Tuple
	left, right *node
}

// Structure is the compressed representation of Theorem 1 for one adorned
// view: the delay-balanced tree T and the heavy-pair dictionary D, plus the
// linear-space base indexes held by the underlying join.Instance.
//
// Once built, a Structure is immutable and safe for any number of
// concurrent Query callers (each Iter carries its own state). The two
// mutating methods — RefineOnes and DropDictionary — are construction- and
// ablation-time tools and must not run concurrently with queries.
type Structure struct {
	inst *join.Instance
	est  *join.Estimator
	tau  float64

	root       *node
	nodes      []*node // by id
	maxLevel   int
	dict       dict
	exhaustive bool
	walked     bool // the dictionary came from walkDictionary

	buildTime time.Time
	elapsed   time.Duration
}

// BuildOption customizes the construction without affecting the built
// structure: any option combination yields a byte-identical tree and
// dictionary.
type BuildOption func(*buildConfig)

type buildConfig struct {
	workers int
	ctx     context.Context
	perNode bool // test hook: every node enumerates its own candidates
}

// Workers bounds the number of goroutines used to build the heavy-pair
// dictionary. n <= 0 means runtime.GOMAXPROCS(0). The output is
// deterministic regardless of the worker count: each piece of the work (a
// piece of the join walk, a chunk of valuations, or a tree node) lands in
// its own slot, and the slots join into the same table no matter which
// worker filled them.
func Workers(n int) BuildOption { return func(c *buildConfig) { c.workers = n } }

// Context arms Build with a cancellation context: tree construction and
// the dictionary workers poll ctx and abandon the build promptly when it
// is done, returning ctx.Err(). A nil ctx means context.Background().
func Context(ctx context.Context) BuildOption { return func(c *buildConfig) { c.ctx = ctx } }

// Build constructs the Theorem-1 structure for the instance under the
// fractional edge cover u with threshold τ ≥ 1. The view must have at
// least one free variable (all-bound views are served by a plain index; see
// the baseline package).
//
// The dictionary covers the Proposition-13 candidate set (projections of
// the E_Vb join). Use BuildExhaustive when heavy-but-empty requests must
// also answer within the delay bound.
func Build(inst *join.Instance, u fractional.Cover, tau float64, opts ...BuildOption) (*Structure, error) {
	return build(inst, u, tau, false, opts)
}

// BuildExhaustive is Build with the exhaustive candidate stream: the
// dictionary additionally stores emptiness bits for heavy valuations whose
// E_Vb join is empty even though every per-atom restriction is non-empty
// (e.g. intersecting two large disjoint neighbor lists). This closes a gap
// in the paper's Proposition 13 at the cost of preprocessing up to the
// (T(I)/τ)^α heavy-valuation bound of Proposition 7.
func BuildExhaustive(inst *join.Instance, u fractional.Cover, tau float64, opts ...BuildOption) (*Structure, error) {
	return build(inst, u, tau, true, opts)
}

func build(inst *join.Instance, u fractional.Cover, tau float64, exhaustive bool, opts []BuildOption) (*Structure, error) {
	if tau < 1 {
		return nil, fmt.Errorf("primitive: threshold τ = %v must be at least 1", tau)
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
	est, err := join.NewEstimator(inst, u)
	if err != nil {
		return nil, err
	}
	s := &Structure{inst: inst, est: est, tau: tau, dict: emptyDict(len(inst.NV.Bound)), exhaustive: exhaustive}
	start := time.Now()

	root, ok := s.rootInterval()
	if ok {
		if s.root, err = s.buildTree(cfg.ctx, root, 0); err != nil {
			return nil, err
		}
		if err := s.buildDictionary(cfg.ctx, cfg.workers, cfg.perNode); err != nil {
			return nil, err
		}
	}
	s.elapsed = time.Since(start)
	return s, nil
}

// rootInterval is the active-domain bounding box of the free space: the
// paper's I(r) = D_f. The boolean is false when some free domain is empty
// (the view result is empty for every request).
func (s *Structure) rootInterval() (interval.Interval, bool) {
	mu := s.inst.Mu
	lo := make(relation.Tuple, mu)
	hi := make(relation.Tuple, mu)
	for d := 0; d < mu; d++ {
		dom := s.inst.FreeDomain(d)
		if len(dom) == 0 {
			return interval.Interval{}, false
		}
		lo[d] = dom[0]
		hi[d] = dom[len(dom)-1]
	}
	return interval.Interval{Lo: lo, Hi: hi, LoInc: true, HiInc: true}, true
}

// levelThreshold returns τ_ℓ = τ / 2^{ℓ(1−1/α)}.
func (s *Structure) levelThreshold(level int) float64 {
	return s.tau / math.Pow(2, float64(level)*(1-1/s.est.Alpha))
}

// buildTree recursively constructs the delay-balanced tree of Section 4.3,
// polling ctx once per node so a cancelled build unwinds promptly.
func (s *Structure) buildTree(ctx context.Context, iv interval.Interval, level int) (*node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := &node{id: int32(len(s.nodes)), level: level, iv: iv}
	s.nodes = append(s.nodes, n)
	if level > s.maxLevel {
		s.maxLevel = level
	}
	if s.est.TInterval(iv) < s.levelThreshold(level) {
		return n, nil
	}
	beta, ok := SplitInterval(s.inst, s.est, iv)
	if !ok {
		return n, nil
	}
	n.beta = beta
	left, _, right := iv.SplitAt(beta)
	var err error
	if !left.Empty() {
		if n.left, err = s.buildTree(ctx, left, level+1); err != nil {
			return nil, err
		}
	}
	if !right.Empty() {
		if n.right, err = s.buildTree(ctx, right, level+1); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// buildDictionary computes the heavy-pair dictionary of Appendix A: for
// every tree node w at level ℓ and every bound valuation v_b with
// T(v_b, I(w)) > τ_ℓ, it stores one bit recording whether the join
// restricted to I(w) under v_b is non-empty.
//
// Where join.Witnessed holds and the build is not exhaustive, the
// candidates come from one walk of the E_Vb join over the root interval
// (walkDictionary). Otherwise each node enumerates its own candidates
// (nodeDictionary): nodes are independent — each owns the dictionary
// entries that carry its id — so they are processed by up to workers
// goroutines pulling node indices from a shared counter (nodes near the
// root carry most of the candidate work, so static striping would balance
// poorly). Each node's entries land in its own slot and the slots are
// joined in id order, so the table is identical for every worker count.
// Workers poll ctx between nodes and every 64 candidates within a node, so
// cancellation aborts the build promptly and buildDictionary returns
// ctx.Err().
func (s *Structure) buildDictionary(ctx context.Context, workers int, perNode bool) error {
	if !perNode && !s.exhaustive && join.Witnessed(s.inst) {
		s.walked = true
		return s.walkDictionary(ctx, workers)
	}
	results := make([]nodeEntries, len(s.nodes))
	err := parallel(ctx, workers, len(s.nodes), func() func(i int) {
		return func(i int) { results[i] = s.nodeDictionary(ctx, s.nodes[i]) }
	})
	if err != nil {
		return err
	}
	s.dict = joinDict(len(s.inst.NV.Bound), results)
	return nil
}

// parallel calls job(i) for every i in [0, n) on up to workers goroutines
// that pull indices from a shared counter. Each goroutine makes its own job
// with newJob, so per-goroutine state needs no lock. Once ctx is done no
// index is handed out; parallel waits for the goroutines and returns
// ctx.Err().
func parallel(ctx context.Context, workers, n int, newJob func() func(i int)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := newJob()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// nodeDictionary computes one node's heavy-pair entries from its own
// enumeration of the candidate join: the build's path for an exhaustive
// dictionary and for views where join.Witnessed fails (E_Vb in several
// components, or a free variable in no bound-touching atom). The candidate
// stream of a node near the root can dominate the whole build, so ctx is
// polled every 64 candidates, not just per node; once it is done the
// entries are cut short, and the build returns ctx.Err().
func (s *Structure) nodeDictionary(ctx context.Context, n *node) nodeEntries {
	candidates := join.BoundCandidates
	if s.exhaustive {
		candidates = join.BoundCandidatesExhaustive
	}
	h := s.newHeavyTest()
	boxes := interval.Decompose(n.iv)
	tauL := s.levelThreshold(n.level)
	seen := make(map[string]bool)
	var (
		out   nodeEntries
		key   []byte
		steps int
	)
	for _, b := range boxes {
		candidates(s.inst, b, func(vb relation.Tuple) bool {
			if steps++; steps&0x3f == 0 && ctx.Err() != nil {
				return false
			}
			key = vb.AppendEncode(key[:0])
			if seen[string(key)] {
				return true
			}
			seen[string(key)] = true
			h.bind(vb)
			if bit, heavy := h.entry(boxes, tauL, false); heavy {
				out.add(vb, bit)
			}
			return true
		})
	}
	return out
}

// heavyTest is Appendix A's test of one bound valuation at tree nodes, for
// one goroutine: T(v_b, I(w)) is summed over the node's boxes in
// decomposition order, exactly as Estimator.TIntervalBound would, with
// the valuation's rows sought once for all boxes and nodes (join.Rows),
// and one Enum serves every emptiness check.
type heavyTest struct {
	est  *join.Estimator
	rows join.Rows
	en   *join.Enum
}

func (s *Structure) newHeavyTest() *heavyTest {
	return &heavyTest{est: s.est, en: join.NewEnum(s.inst, nil, interval.Box{})}
}

// bind makes vb the valuation that entry tests; it must not change until
// the next bind.
func (h *heavyTest) bind(vb relation.Tuple) {
	h.rows = h.est.Rows(h.rows, vb)
	h.en.Rebind(vb, interval.Box{})
}

// entry reports whether the bound valuation is heavy at a node with the
// given boxes and threshold τ_ℓ, and the node's bit: whether the join has
// an answer in the node's interval. nonEmpty says it is known to have one,
// so the bit is 1 without a check.
func (h *heavyTest) entry(boxes []interval.Box, tauL float64, nonEmpty bool) (bit byte, heavy bool) {
	t := 0.0
	for _, eb := range boxes {
		t += h.est.TBoxRows(h.rows, eb)
	}
	if t <= tauL {
		return 0, false
	}
	if nonEmpty {
		return 1, true
	}
	for _, eb := range boxes {
		h.en.Reset(eb)
		if h.en.Exists() {
			return 1, true
		}
	}
	return 0, true
}

// Instance returns the underlying join instance.
func (s *Structure) Instance() *join.Instance { return s.inst }

// Estimator returns the cost estimator (cover, slack) used by the
// structure.
func (s *Structure) Estimator() *join.Estimator { return s.est }

// Tau returns the threshold parameter.
func (s *Structure) Tau() float64 { return s.tau }

// Stats summarizes the space footprint of the compressed representation.
type Stats struct {
	// TreeNodes is the number of delay-balanced tree nodes.
	TreeNodes int
	// MaxLevel is the deepest tree level.
	MaxLevel int
	// DictEntries is the number of heavy (node, valuation) pairs stored.
	DictEntries int
	// Bytes is the footprint of the tree's nodes and the dictionary's
	// arrays as held in memory (excluding the always-linear base indexes).
	Bytes int
	// BuildTime is the preprocessing (compression) time T_C.
	BuildTime time.Duration
}

// Stats reports the structure's size counters.
func (s *Structure) Stats() Stats {
	return Stats{
		TreeNodes:   len(s.nodes),
		MaxLevel:    s.maxLevel,
		DictEntries: s.dict.live,
		Bytes:       s.treeFootprint() + s.dict.footprint(),
		BuildTime:   s.elapsed,
	}
}

// treeFootprint returns the bytes the tree holds: per node its struct, its
// pointer in the id-ordered node list, and its interval endpoints and split
// point.
func (s *Structure) treeFootprint() int {
	b := len(s.nodes) * int(unsafe.Sizeof(node{})+unsafe.Sizeof(s.root))
	for _, n := range s.nodes {
		b += 8 * (len(n.iv.Lo) + len(n.iv.Hi) + len(n.beta))
	}
	return b
}

// NodeView is a read-only description of one tree node, used by tests and
// diagnostics to compare against the paper's worked examples (Figure 3).
type NodeView struct {
	ID          int32
	Level       int
	Interval    interval.Interval
	Beta        relation.Tuple
	Left, Right int32 // -1 when absent
}

// Nodes lists the tree in construction (pre-)order.
func (s *Structure) Nodes() []NodeView {
	out := make([]NodeView, len(s.nodes))
	for i, n := range s.nodes {
		v := NodeView{ID: n.id, Level: n.level, Interval: n.iv, Beta: n.beta, Left: -1, Right: -1}
		if n.left != nil {
			v.Left = n.left.id
		}
		if n.right != nil {
			v.Right = n.right.id
		}
		out[i] = v
	}
	return out
}

// DictBit exposes dictionary entries for tests: it returns the stored bit
// and whether the (node, valuation) pair is present.
func (s *Structure) DictBit(id int32, vb relation.Tuple) (byte, bool) {
	return s.dict.lookup(id, vb)
}

// NodeInterval returns the f-interval of the identified tree node.
func (s *Structure) NodeInterval(id int32) interval.Interval {
	return s.nodes[id].iv
}

// RefineOnes implements the mutation step of Algorithm 4: every dictionary
// entry currently set to 1 is re-validated with keep; entries for which
// keep returns false are flipped to 0. The Theorem-2 construction uses this
// to push bottom-up semijoin information into parent-bag dictionaries, so
// that a 1-entry guarantees a full downstream output, not merely a
// bag-local one. The entries of one valuation share one vb, which keep
// must not modify.
func (s *Structure) RefineOnes(keep func(id int32, iv interval.Interval, vb relation.Tuple) bool) {
	t := &s.dict
	for v := 0; v < t.nvals(); v++ {
		var vb relation.Tuple
		for e := t.off[v]; e < t.off[v+1]; e++ {
			if t.bits[e] != 1 {
				continue
			}
			if vb == nil {
				vb = t.valuation(v)
			}
			if id := t.ids[e]; !keep(id, s.nodes[id].iv, vb) {
				t.bits[e] = 0
			}
		}
	}
}

// DropDictionary clears the heavy-pair dictionary, leaving only the
// delay-balanced tree. This exists for ablation studies: without the
// dictionary every node reads ⊥ and Algorithm 2 degenerates to evaluating
// the root interval from scratch, which demonstrates that the dictionary —
// not the tree alone — delivers the delay guarantee.
func (s *Structure) DropDictionary() {
	s.dict = emptyDict(len(s.inst.NV.Bound))
}
