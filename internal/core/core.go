// Package core is the public face of the library: it compiles an adorned
// view over a database into a compressed representation chosen from the
// paper's menu — the Theorem-1 primitive, the Theorem-2 decomposed
// structure, or the two extremal baselines — and answers access requests
// through a uniform iterator interface.
//
// The planner implements Section 6: given a space budget it minimizes
// delay (MinDelayCover), given a delay budget it minimizes space
// (MinSpaceCover), both in polynomial time via the linear programs of
// Figure 5.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/decomp"
	"cqrep/internal/fractional"
	"cqrep/internal/join"
	"cqrep/internal/primitive"
	"cqrep/internal/relation"
)

// Strategy selects the compressed representation.
type Strategy int

// Available strategies.
const (
	// Auto picks AllBound for boolean views, honors explicit budgets with
	// the Theorem-1 primitive, and otherwise builds the constant-delay
	// Theorem-2 structure over a searched connex decomposition.
	Auto Strategy = iota
	// PrimitiveStrategy is the Theorem-1 delay-balanced tree structure.
	PrimitiveStrategy
	// DecompositionStrategy is the Theorem-2 per-bag structure.
	DecompositionStrategy
	// MaterializedStrategy materializes and indexes the full output.
	MaterializedStrategy
	// DirectStrategy evaluates every request from scratch.
	DirectStrategy
	// AllBoundStrategy answers boolean (all-bound) views with index probes.
	AllBoundStrategy
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case PrimitiveStrategy:
		return "primitive"
	case DecompositionStrategy:
		return "decomposition"
	case MaterializedStrategy:
		return "materialized"
	case DirectStrategy:
		return "direct"
	case AllBoundStrategy:
		return "allbound"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Iterator is the uniform access-request result stream: tuples over the
// view's free variables.
type Iterator interface {
	Next() (relation.Tuple, bool)
}

// config collects build options.
type config struct {
	strategy    Strategy
	tau         float64
	cover       fractional.Cover
	dec         *decomp.Decomposition
	delta       []float64
	spaceBudget float64 // entries; 0 = unset
	delayBudget float64 // τ bound; 0 = unset
	workers     int     // build parallelism; 0 = GOMAXPROCS
	shards      int     // hash shards; <= 1 = single backend
	noDelta     bool    // disable the delta-apply maintenance path
	ctx         context.Context
}

// Option customizes Build.
type Option func(*c)

type c = config

// WithStrategy forces a representation strategy.
func WithStrategy(s Strategy) Option { return func(cfg *config) { cfg.strategy = s } }

// WithTau sets the Theorem-1 threshold τ directly.
func WithTau(tau float64) Option { return func(cfg *config) { cfg.tau = tau } }

// WithCover sets the fractional edge cover used by the Theorem-1 structure
// (one weight per body atom).
func WithCover(u fractional.Cover) Option { return func(cfg *config) { cfg.cover = u } }

// WithDecomposition supplies a connex tree decomposition for the Theorem-2
// structure (bags over the normalized view's variable ids).
func WithDecomposition(d *decomp.Decomposition) Option { return func(cfg *config) { cfg.dec = d } }

// WithDelta supplies the per-bag delay assignment for the Theorem-2
// structure.
func WithDelta(delta []float64) Option { return func(cfg *config) { cfg.delta = delta } }

// WithSpaceBudget asks the Section-6 planner to minimize delay subject to
// the structure using about the given number of entries.
func WithSpaceBudget(entries float64) Option { return func(cfg *config) { cfg.spaceBudget = entries } }

// WithDelayBudget asks the Section-6 planner to minimize space subject to
// delay at most the given τ.
func WithDelayBudget(tau float64) Option { return func(cfg *config) { cfg.delayBudget = tau } }

// WithWorkers bounds the goroutines used during compilation: decomposition
// bags, heavy-pair dictionary nodes, and shard sub-representations are
// built by a pool of at most n workers. n <= 0 (the default) means
// runtime.GOMAXPROCS(0). The compiled representation is identical for every
// worker count — parallelism changes only the build wall-clock.
func WithWorkers(n int) Option { return func(cfg *config) { cfg.workers = n } }

// WithShards hash-partitions the database by the values of the view's
// shard variable (the first bound head variable, or the first free one for
// views with no bound variables) and compiles one sub-representation per
// shard. Shards compile in parallel under the WithWorkers pool; access
// requests route directly to the owning shard when the shard variable is
// bound and merge-enumerate across shards in global lexicographic order
// when it is free, so the sharded representation enumerates byte-for-byte
// identically to the unsharded one. Planner budgets (WithSpaceBudget,
// WithDelayBudget) apply per shard. n <= 1 (the default) compiles a single
// backend.
func WithShards(n int) Option { return func(cfg *config) { cfg.shards = n } }

// WithDeltaApply toggles the delta-application maintenance path (on by
// default): backends with the deltaApplier capability — materialized
// buckets, all-bound indexes, and the Theorem-1 tree — absorb a change
// batch on a copy-on-write clone instead of recompiling; everything else
// (and any delta out of a backend's reach) falls back to the full or
// dirty-shard recompile regardless of this option. Build itself ignores
// the option; only Maintained's rebuild cycle consults it.
func WithDeltaApply(enabled bool) Option { return func(cfg *config) { cfg.noDelta = !enabled } }

// Stats describes a built representation.
type Stats struct {
	Strategy  Strategy
	BuildTime time.Duration
	// Entries counts structure-specific stored items (dictionary entries +
	// tree nodes, or materialized tuples); Bytes estimates their footprint.
	// Neither includes the linear-space base indexes.
	Entries int
	Bytes   int
	// Tau and Alpha describe the Theorem-1 parameters when applicable.
	Tau   float64
	Alpha float64
	// Width and Height are the δ-width and δ-height for decompositions.
	Width  float64
	Height float64
	// Shards counts the hash shards of the compiled representation; 1 means
	// a single (unsharded) backend.
	Shards int
}

// Representation is a compiled adorned view ready to serve access requests.
//
// A Representation is immutable after Build and safe for any number of
// concurrent Query/Exists callers: every iterator carries its own
// enumeration state and the underlying structures and base indexes are
// read-only. The base Database must not be mutated while queries run; use
// Maintained for views over changing data.
type Representation struct {
	orig *cq.View // the view as given, possibly non-full
	view *cq.View // the compiled full view
	sh   *shell   // normalized view, base database, join instance on demand

	strategy Strategy
	be       backend // the uniform strategy surface (see backend.go)

	stats Stats

	// lazy defers decoding for mmap-loaded snapshots; nil for eagerly
	// built or loaded representations. See ensure in lazy.go.
	lazy *lazySnapshot

	// payloadSize is the snapshot payload's length once payloadLen has
	// counted it, 0 before.
	payloadSize atomic.Int64
}

// Build compiles the adorned view over db. Non-full views (boolean or
// projected heads) are extended to full views first; their boolean answer
// is "is the iterator non-empty".
func Build(view *cq.View, db *relation.Database, opts ...Option) (*Representation, error) {
	return BuildContext(context.Background(), view, db, opts...)
}

// BuildContext is Build with cancellation: ctx is threaded into the
// parallel Theorem-1 and Theorem-2 construction pools, which poll it and
// abandon the build promptly, returning ctx.Err(). A nil ctx means
// context.Background().
func BuildContext(ctx context.Context, view *cq.View, db *relation.Database, opts ...Option) (*Representation, error) {
	cfg, err := newBuildConfig(ctx, opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.shards > 1 {
		return buildSharded(view, db, cfg)
	}
	return buildSingle(view, db, cfg)
}

// newBuildConfig resolves the option slice into a validated config. A nil
// ctx means context.Background().
func newBuildConfig(ctx context.Context, opts []Option) (*config, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := &config{ctx: ctx}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if err := validateBudgets(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// shell is the deterministic front of a representation: the normalized
// view over the base database the view was compiled over, and the join
// instance (base indexes and active domains) built from them on first
// need. Only request-time evaluation reads the instance — the light nodes
// of Theorem 1, the bags of Theorem 2, direct and all-bound probes — so a
// materialized output never builds it. Representations share a shell by
// pointer: copying a Representation's fields never copies the guard.
type shell struct {
	nv   *cq.NormalizedView
	db   *relation.Database
	once sync.Once
	inst atomic.Pointer[join.Instance]
	err  error
}

// instance returns the join instance, building it on the first call;
// concurrent first callers block until the one build is in and all get
// the same pointer. A build failure is sticky and wraps ErrBadView.
func (s *shell) instance() (*join.Instance, error) {
	s.once.Do(func() {
		inst, err := join.NewInstance(s.nv)
		if err != nil {
			s.err = fmt.Errorf("%w: %w", ErrBadView, err)
			return
		}
		s.inst.Store(inst)
	})
	return s.inst.Load(), s.err
}

// completeInstance is instance with every lazily built index and domain
// in place (join.Instance.Complete): the form a backend whose requests
// read the instance takes, so no request pays for a sort.
func (s *shell) completeInstance() (*join.Instance, error) {
	inst, err := s.instance()
	if err == nil {
		inst.Complete()
	}
	return inst, err
}

// newShell runs the deterministic front of every build and load: extend
// the view to full and normalize it against db. It builds no index: the
// join instance waits for shell.instance, which builds and every decoder
// whose queries read it force before they return, so no request pays for
// it. The returned representation has no backend yet.
func newShell(view *cq.View, db *relation.Database) (*Representation, error) {
	full := view.ExtendToFull()
	nv, err := cq.Normalize(full, db)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadView, err)
	}
	return &Representation{orig: view, view: full, sh: &shell{nv: nv, db: db}}, nil
}

// resolveStrategy applies the Auto policy: AllBound for boolean views, the
// Theorem-1 primitive when explicit budgets steer the planner, and the
// constant-delay Theorem-2 structure otherwise. The choice depends only on
// the view shape and the options, so every shard of a partitioned build
// resolves to the same strategy.
func resolveStrategy(cfg *config, nv *cq.NormalizedView) Strategy {
	if cfg.strategy != Auto {
		return cfg.strategy
	}
	switch {
	case len(nv.Free) == 0:
		return AllBoundStrategy
	case cfg.tau > 0 || cfg.spaceBudget > 0 || cfg.delayBudget > 0 || cfg.cover != nil:
		return PrimitiveStrategy
	default:
		return DecompositionStrategy
	}
}

// buildSingle compiles one (unsharded) backend through the registry.
func buildSingle(view *cq.View, db *relation.Database, cfg *config) (*Representation, error) {
	r, err := newShell(view, db)
	if err != nil {
		return nil, err
	}
	// Every backend's build reads the BoundFirst indexes. Build them before
	// the clock starts; the FreeFirst indexes and active domains, which
	// only some backends read, count toward the build that reads them.
	if _, err := r.sh.instance(); err != nil {
		return nil, err
	}
	start := time.Now()
	strategy := resolveStrategy(cfg, r.sh.nv)
	r.strategy = strategy
	r.stats.Strategy = strategy
	r.stats.Shards = 1
	spec, ok := backendSpecs[strategy]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownStrategy, strategy)
	}
	be, err := spec.build(r, cfg)
	if err != nil {
		return nil, err
	}
	r.be = be
	if err := cfg.ctx.Err(); err != nil {
		return nil, err
	}
	r.stats.BuildTime = time.Since(start)
	return r, nil
}

// validateBudgets rejects out-of-domain planner budgets before any work
// happens. Zero means unset; negative or NaN values are option misuse.
func validateBudgets(cfg *config) error {
	if cfg.spaceBudget < 0 || math.IsNaN(cfg.spaceBudget) {
		return fmt.Errorf("%w: space budget %v", ErrBadOption, cfg.spaceBudget)
	}
	if cfg.delayBudget < 0 || math.IsNaN(cfg.delayBudget) {
		return fmt.Errorf("%w: delay budget %v", ErrBadOption, cfg.delayBudget)
	}
	if cfg.tau < 0 || math.IsNaN(cfg.tau) {
		return fmt.Errorf("%w: tau %v", ErrBadOption, cfg.tau)
	}
	return nil
}

// relationSizes lists per-atom base relation sizes.
func relationSizes(nv *cq.NormalizedView) []int {
	sizes := make([]int, len(nv.Atoms))
	for i, a := range nv.Atoms {
		sizes[i] = a.Rel.Len()
	}
	return sizes
}

// buildPrimitive resolves (u, τ) from the options and Section-6 planner and
// builds the Theorem-1 structure.
func (r *Representation) buildPrimitive(cfg *config) (backend, error) {
	if len(r.sh.nv.Free) == 0 {
		return nil, fmt.Errorf("%w: primitive strategy requires at least one free variable", ErrStrategyMismatch)
	}
	inst, err := r.sh.completeInstance()
	if err != nil {
		return nil, err
	}
	h := r.sh.nv.Hypergraph()
	u := cfg.cover
	tau := cfg.tau
	switch {
	case cfg.spaceBudget > 0:
		pt, err := fractional.MinDelayCover(h, r.sh.nv.Free, relationSizes(r.sh.nv), math.Log(cfg.spaceBudget))
		if err != nil {
			return nil, fmt.Errorf("%w: space budget %g: %w", ErrInfeasibleBudget, cfg.spaceBudget, err)
		}
		if u == nil {
			u = pt.U
		}
		if tau == 0 {
			tau = pt.Tau
		}
	case cfg.delayBudget > 0:
		pt, err := fractional.MinSpaceCover(h, r.sh.nv.Free, relationSizes(r.sh.nv), math.Log(cfg.delayBudget))
		if err != nil {
			return nil, fmt.Errorf("%w: delay budget %g: %w", ErrInfeasibleBudget, cfg.delayBudget, err)
		}
		if u == nil {
			u = pt.U
		}
		if tau == 0 {
			tau = pt.Tau
		}
	}
	if u == nil {
		u = fractional.AllOnes(h)
	}
	u = sanitizeCover(h, u)
	if tau == 0 {
		tau = 1
	}
	if tau < 1 {
		tau = 1
	}
	s, err := primitive.Build(inst, u, tau, primitive.Workers(cfg.workers), primitive.Context(cfg.ctx))
	if err != nil {
		return nil, err
	}
	st := s.Stats()
	r.stats.Entries = st.DictEntries + st.TreeNodes
	r.stats.Bytes = st.Bytes
	r.stats.Tau = tau
	r.stats.Alpha = s.Estimator().Alpha
	return primitiveBackend{s: s}, nil
}

// buildDecomposition resolves the decomposition and delay assignment and
// builds the Theorem-2 structure.
func (r *Representation) buildDecomposition(cfg *config) (backend, error) {
	h := r.sh.nv.Hypergraph()
	d := cfg.dec
	if d == nil {
		res, err := decomp.SearchConnex(h, r.sh.nv.Bound)
		if err != nil {
			return nil, err
		}
		d = res.Dec
	}
	delta := cfg.delta
	if delta == nil {
		dbSize := 0
		for _, s := range relationSizes(r.sh.nv) {
			dbSize += s
		}
		switch {
		case cfg.spaceBudget > 0:
			// Section 6: per-bag MinDelayCover under the space budget.
			var err error
			delta, err = decomp.OptimizeDelta(r.sh.nv, d, math.Log(cfg.spaceBudget))
			if err != nil {
				return nil, fmt.Errorf("%w: space budget %g: %w", ErrInfeasibleBudget, cfg.spaceBudget, err)
			}
		case cfg.delayBudget > 1:
			// Delay budget |D|^h: scale a uniform assignment to height h.
			delta = decomp.DeltaForHeight(d, decomp.LogBase(dbSize, cfg.delayBudget))
		case cfg.tau > 1:
			// A uniform delay assignment realizing roughly the requested
			// per-bag delay, as in Example 10.
			delta = decomp.UniformDelta(d, decomp.LogBase(dbSize, cfg.tau))
		default:
			delta = make([]float64, len(d.Bags))
		}
	}
	inst, err := r.sh.instance()
	if err != nil {
		return nil, err
	}
	s, err := decomp.Build(inst, d, delta, decomp.Workers(cfg.workers), decomp.Context(cfg.ctx))
	if err != nil {
		return nil, err
	}
	st := s.Stats()
	r.stats.Entries = st.DictEntries + st.TreeNodes
	r.stats.Bytes = st.Bytes
	r.stats.Width = st.Width
	r.stats.Height = st.Height
	return decompBackend{s: s}, nil
}

// sanitizeCover rescales LP output so numeric fuzz cannot invalidate the
// cover property demanded by the estimator.
func sanitizeCover(h cq.Hypergraph, u fractional.Cover) fractional.Cover {
	all := make([]int, h.N)
	for i := range all {
		all[i] = i
	}
	minCov := math.Inf(1)
	for _, x := range all {
		cov := 0.0
		for e, edge := range h.Edges {
			for _, v := range edge {
				if v == x {
					cov += u[e]
					break
				}
			}
		}
		if cov < minCov {
			minCov = cov
		}
	}
	if minCov >= 1 || minCov < 0.5 {
		if minCov < 0.5 {
			return fractional.AllOnes(h)
		}
		return u
	}
	out := make(fractional.Cover, len(u))
	for i, w := range u {
		out[i] = w / minCov
	}
	return out
}

// Query answers an access request given the bound-variable valuation in
// head order. It is safe to call from any number of goroutines; the
// returned Iterator is not itself safe for sharing between goroutines.
// An mmap-loaded representation whose payload fails to decode returns an
// empty iterator whose IterErr wraps ErrBadSnapshot.
func (r *Representation) Query(vb relation.Tuple) Iterator {
	if err := r.ensure(); err != nil {
		return errIterator{err}
	}
	return r.be.Query(vb)
}

// QueryArgs answers an access request given bound values by variable name.
// A valuation that does not match the view's bound variables fails with an
// error wrapping ErrBadBinding.
func (r *Representation) QueryArgs(args map[string]relation.Value) (Iterator, error) {
	vb, err := r.Bind(args)
	if err != nil {
		return nil, err
	}
	return r.Query(vb), nil
}

// Bind resolves named bound values into a valuation in the view's bound
// order, wrapping failures with ErrBadBinding. An mmap-loaded
// representation that fails to decode returns that error instead.
func (r *Representation) Bind(args map[string]relation.Value) (relation.Tuple, error) {
	if err := r.ensure(); err != nil {
		return nil, err
	}
	return BindView(r.view, args)
}

// BindView resolves named bound values against the full view v (what
// Representation.View returns), wrapping failures with ErrBadBinding. It
// needs no compiled structure, so a router that holds only the view binds
// exactly as the representation that answers the request would.
func BindView(v *cq.View, args map[string]relation.Value) (relation.Tuple, error) {
	vb, err := v.BindArgs(args)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBinding, err)
	}
	return vb, nil
}

// Exists reports whether the access request has any answer — the boolean
// semantics of non-full adorned views (Section 3.3). Like Query, it is safe
// for concurrent use. Backends with a native membership probe (the
// all-bound index check, the materialized bucket lookup) answer without
// constructing an enumeration.
func (r *Representation) Exists(vb relation.Tuple) bool {
	if err := r.ensure(); err != nil {
		return false
	}
	return r.be.Exists(vb)
}

// Stats returns the build statistics. An mmap-loaded representation
// materializes first; one that fails to decode reports zero statistics.
func (r *Representation) Stats() Stats {
	r.ensure()
	return r.stats
}

// View returns the (full) compiled view.
func (r *Representation) View() *cq.View { return r.view }

// Normalized returns the normalized view (variable ids, orders), or nil
// for an mmap-loaded representation that fails to decode.
func (r *Representation) Normalized() *cq.NormalizedView {
	if err := r.ensure(); err != nil {
		return nil
	}
	return r.sh.nv
}

// Instance returns the bound join instance (base indexes), building it on
// the first call when the backend never needed it (a materialized output
// or the sharded composite's outer view), or nil for an mmap-loaded
// representation that fails to decode.
func (r *Representation) Instance() *join.Instance {
	if err := r.ensure(); err != nil {
		return nil
	}
	inst, _ := r.sh.instance()
	return inst
}

// InstanceBuiltForTest reports whether r, or any shard of the sharded
// composite, has built its join instance. It is a test hook: serving
// never calls it. It decodes nothing — an mmap-loaded representation or
// shard that no request has touched has built none — so callers must be
// ordered after whatever touched r (a drained request, a closed server).
func InstanceBuiltForTest(r *Representation) bool {
	if r.sh != nil && r.sh.inst.Load() != nil {
		return true
	}
	if sb, ok := r.be.(*shardedBackend); ok {
		for _, sub := range sb.subs {
			if InstanceBuiltForTest(sub) {
				return true
			}
		}
	}
	return false
}

// Database returns the base-relation database the representation was
// compiled over (snapshots carry it, so loaded representations have one
// too), or nil for an mmap-loaded representation that fails to decode.
// The database is shared with the representation: callers must treat it
// as read-only and route changes through Maintained instead.
func (r *Representation) Database() *relation.Database {
	if err := r.ensure(); err != nil {
		return nil
	}
	return r.sh.db
}

// EnumOrder reports the representation's enumeration order as output
// tuple positions, most significant first; nil means lexicographic head
// order. Only the Theorem-2 decomposition enumerates in a non-head order
// (Algorithm 5's traversal); differential checkers use this to reorder a
// trusted baseline before demanding byte-identical streams.
func (r *Representation) EnumOrder() []int {
	if err := r.ensure(); err != nil {
		return nil
	}
	return r.be.EnumOrder()
}

// FreeNames returns the output column names of Query tuples.
func (r *Representation) FreeNames() []string {
	if err := r.ensure(); err != nil {
		return nil
	}
	return r.sh.nv.FreeNames()
}

// BoundNames returns the expected valuation order for Query.
func (r *Representation) BoundNames() []string {
	if err := r.ensure(); err != nil {
		return nil
	}
	return r.sh.nv.BoundNames()
}

// Drain collects an iterator fully.
func Drain(it Iterator) []relation.Tuple {
	var out []relation.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}
