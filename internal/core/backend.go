package core

import (
	"context"
	"fmt"

	"cqrep/internal/baseline"
	"cqrep/internal/decomp"
	"cqrep/internal/primitive"
	"cqrep/internal/relation"
)

// backend is the uniform strategy surface behind a Representation: every
// compressed representation — the Theorem-1 primitive, the Theorem-2
// decomposed structure, the three baselines, and the sharded composite —
// answers access requests, membership probes, and snapshot serialization
// through this one interface. Adding a representation kind means writing a
// backend and registering its backendSpec; no call site switches on the
// strategy anymore.
//
// Backends are immutable after construction and safe for any number of
// concurrent Query/Exists callers; iterators carry their own state.
type backend interface {
	// Query answers an access request given the bound-variable valuation
	// in head order.
	Query(vb relation.Tuple) Iterator
	// Exists reports whether the access request has any answer. Backends
	// with a native membership check (index probe, bucket lookup) answer
	// without constructing an enumeration.
	Exists(vb relation.Tuple) bool
	// EncodeTo appends the backend's expensive precomputed state to a
	// snapshot payload; the matching backendSpec.decode reverses it.
	EncodeTo(e *relation.Encoder)
	// EnumOrder returns the backend's enumeration order as output tuple
	// positions, most significant first; nil means lexicographic head
	// order. Composite backends compare heads through it when merging
	// independent enumerations.
	EnumOrder() []int
}

// blockBackend is the capability of a backend that lends its answers as
// blocks natively: QueryBlocks serves its stream as is, and its Query is
// the tuple view over the same stream (Tuples).
type blockBackend interface {
	queryBlocks(ctx context.Context, vb relation.Tuple) BlockIterator
}

// backendSpec is one strategy's entry in the backend registry: how to
// compile the backend from a configured build, and how to decode its
// snapshot payload against a reconstructed representation shell (view and
// normalized view in place, join instance on demand). Both hooks fill in
// the representation's strategy-specific stats. Every hook whose backend
// reads the join instance at request time builds it, complete, before
// returning (shell.completeInstance), so no request pays for it; the
// materialized decoder never builds it, and the materialized build reads
// only the BoundFirst indexes NewInstance builds.
type backendSpec struct {
	build  func(r *Representation, cfg *config) (backend, error)
	decode func(d *relation.Decoder, r *Representation) (backend, error)
}

// backendSpecs is the registry keyed by strategy tag. The snapshot codec
// and Build both dispatch through it, so a new strategy plugs in here once
// and is immediately compilable, servable, and persistable.
var backendSpecs = map[Strategy]backendSpec{
	PrimitiveStrategy: {
		build: func(r *Representation, cfg *config) (backend, error) { return r.buildPrimitive(cfg) },
		decode: func(d *relation.Decoder, r *Representation) (backend, error) {
			inst, err := r.sh.completeInstance()
			if err != nil {
				return nil, err
			}
			s, err := primitive.Decode(d, inst)
			if err != nil {
				return nil, err
			}
			st := s.Stats()
			r.stats.Entries = st.DictEntries + st.TreeNodes
			r.stats.Bytes = st.Bytes
			r.stats.Tau = s.Tau()
			r.stats.Alpha = s.Estimator().Alpha
			return primitiveBackend{s: s}, nil
		},
	},
	DecompositionStrategy: {
		build: func(r *Representation, cfg *config) (backend, error) { return r.buildDecomposition(cfg) },
		decode: func(d *relation.Decoder, r *Representation) (backend, error) {
			inst, err := r.sh.completeInstance()
			if err != nil {
				return nil, err
			}
			s, err := decomp.Decode(d, r.sh.nv, inst)
			if err != nil {
				return nil, err
			}
			st := s.Stats()
			r.stats.Entries = st.DictEntries + st.TreeNodes
			r.stats.Bytes = st.Bytes
			r.stats.Width = st.Width
			r.stats.Height = st.Height
			return decompBackend{s: s}, nil
		},
	},
	MaterializedStrategy: {
		build: func(r *Representation, cfg *config) (backend, error) {
			inst, err := r.sh.instance()
			if err != nil {
				return nil, err
			}
			m, err := baseline.Materialize(inst)
			if err != nil {
				return nil, err
			}
			st := m.Stats()
			r.stats.Entries = st.Tuples
			r.stats.Bytes = st.Bytes
			return materializedBackend{m: m}, nil
		},
		decode: func(d *relation.Decoder, r *Representation) (backend, error) {
			m, err := baseline.DecodeMaterialized(d, r.sh.nv)
			if err != nil {
				return nil, err
			}
			st := m.Stats()
			r.stats.Entries = st.Tuples
			r.stats.Bytes = st.Bytes
			return materializedBackend{m: m}, nil
		},
	},
	DirectStrategy: {
		build: func(r *Representation, cfg *config) (backend, error) { return newDirectBackend(r.sh) },
		decode: func(d *relation.Decoder, r *Representation) (backend, error) {
			return newDirectBackend(r.sh)
		},
	},
	AllBoundStrategy: {
		build: func(r *Representation, cfg *config) (backend, error) {
			if mu := len(r.sh.nv.Free); mu != 0 {
				return nil, fmt.Errorf("%w: AllBound requires every variable bound, view has %d free", ErrStrategyMismatch, mu)
			}
			return newAllBoundBackend(r.sh)
		},
		decode: func(d *relation.Decoder, r *Representation) (backend, error) {
			if mu := len(r.sh.nv.Free); mu != 0 {
				return nil, fmt.Errorf("AllBound snapshot over a view with %d free variables", mu)
			}
			return newAllBoundBackend(r.sh)
		},
	},
}

// deltaChanges splits output changes into the parallel (bound, free)
// slices the structure-level delta entry points take.
func deltaChanges(ocs []outputChange) (vbs, frees []relation.Tuple) {
	vbs = make([]relation.Tuple, len(ocs))
	frees = make([]relation.Tuple, len(ocs))
	for i, oc := range ocs {
		vbs[i] = oc.vb
		frees[i] = oc.free
	}
	return vbs, frees
}

// existsByQuery is the generic membership fallback for backends without a
// native probe: open an enumeration and ask for the first tuple.
func existsByQuery(b backend, vb relation.Tuple) bool {
	_, ok := b.Query(vb).Next()
	return ok
}

// primitiveBackend serves the Theorem-1 delay-balanced structure.
type primitiveBackend struct{ s *primitive.Structure }

func (b primitiveBackend) Query(vb relation.Tuple) Iterator { return b.s.Query(vb) }
func (b primitiveBackend) Exists(vb relation.Tuple) bool    { return existsByQuery(b, vb) }
func (b primitiveBackend) EncodeTo(e *relation.Encoder)     { b.s.EncodeTo(e) }
func (b primitiveBackend) EnumOrder() []int                 { return nil }

// applyDelta rebases the delay-balanced tree onto the new instance,
// invalidating the dictionary 0-entries that net-added outputs falsify
// (see primitive/delta.go). Net deletions need no dictionary repair.
func (b primitiveBackend) applyDelta(shell *Representation, d *outputDelta) (backend, bool, error) {
	inst, err := shell.sh.completeInstance()
	if err != nil {
		return nil, false, err
	}
	addVb, addFree := deltaChanges(d.adds)
	s, ok := b.s.DeltaRebase(inst, addVb, addFree)
	if !ok {
		return nil, false, nil
	}
	st := s.Stats()
	shell.stats.Entries = st.DictEntries + st.TreeNodes
	shell.stats.Bytes = st.Bytes
	shell.stats.Tau = s.Tau()
	shell.stats.Alpha = s.Estimator().Alpha
	return primitiveBackend{s: s}, true, nil
}

func (b primitiveBackend) needsOutputs() bool { return true }

// decompBackend serves the Theorem-2 per-bag structure.
type decompBackend struct{ s *decomp.Structure }

func (b decompBackend) Query(vb relation.Tuple) Iterator { return b.s.Query(vb) }
func (b decompBackend) Exists(vb relation.Tuple) bool    { return existsByQuery(b, vb) }
func (b decompBackend) EncodeTo(e *relation.Encoder)     { b.s.EncodeTo(e) }

// EnumOrder is the decomposition-induced order of Algorithm 5 — the one
// enumeration in the menu that is not lexicographic in head order.
func (b decompBackend) EnumOrder() []int { return b.s.EnumOrder() }

// materializedBackend serves the materialize-and-index baseline. Exists is
// a native bucket lookup — no iterator is constructed.
type materializedBackend struct{ m *baseline.MaterializedView }

func (b materializedBackend) Query(vb relation.Tuple) Iterator { return Tuples(b.m.Query(vb)) }
func (b materializedBackend) Exists(vb relation.Tuple) bool    { return b.m.Contains(vb) }
func (b materializedBackend) EncodeTo(e *relation.Encoder)     { b.m.EncodeTo(e) }
func (b materializedBackend) EnumOrder() []int                 { return nil }
func (b materializedBackend) queryBlocks(_ context.Context, vb relation.Tuple) BlockIterator {
	return b.m.Query(vb)
}

// applyDelta edits the output buckets tuple-by-tuple on a copy-on-write
// clone — exactly the incremental-view-maintenance case the full-view
// single-derivation property makes counting-free.
func (b materializedBackend) applyDelta(shell *Representation, d *outputDelta) (backend, bool, error) {
	delVb, delFree := deltaChanges(d.dels)
	addVb, addFree := deltaChanges(d.adds)
	m, err := b.m.ApplyOutputDelta(shell.sh.nv, delVb, delFree, addVb, addFree)
	if err != nil {
		return nil, false, err
	}
	st := m.Stats()
	shell.stats.Entries = st.Tuples
	shell.stats.Bytes = st.Bytes
	return materializedBackend{m: m}, true, nil
}

func (b materializedBackend) needsOutputs() bool { return true }

// directBackend evaluates every request from scratch; it stores no
// precomputed state, so its snapshot payload is empty.
type directBackend struct{ d *baseline.DirectEval }

func newDirectBackend(sh *shell) (backend, error) {
	inst, err := sh.completeInstance()
	if err != nil {
		return nil, err
	}
	return directBackend{d: baseline.NewDirectEval(inst)}, nil
}

func (b directBackend) Query(vb relation.Tuple) Iterator { return b.d.Query(vb) }
func (b directBackend) Exists(vb relation.Tuple) bool    { return existsByQuery(b, vb) }
func (b directBackend) EncodeTo(e *relation.Encoder)     {}
func (b directBackend) EnumOrder() []int                 { return nil }

// allBoundBackend answers boolean views. Exists is a native constant-probe
// membership check (Proposition 1) — no iterator is constructed.
type allBoundBackend struct{ a *baseline.AllBound }

func newAllBoundBackend(sh *shell) (backend, error) {
	inst, err := sh.instance()
	if err != nil {
		return nil, err
	}
	return allBoundBackend{a: baseline.NewAllBound(inst)}, nil
}

func (b allBoundBackend) Query(vb relation.Tuple) Iterator { return Tuples(b.a.Query(vb)) }
func (b allBoundBackend) Exists(vb relation.Tuple) bool    { return b.a.Contains(vb) }
func (b allBoundBackend) EncodeTo(e *relation.Encoder)     {}
func (b allBoundBackend) EnumOrder() []int                 { return nil }
func (b allBoundBackend) queryBlocks(_ context.Context, vb relation.Tuple) BlockIterator {
	return b.a.Query(vb)
}

// applyDelta rewraps the new shell's base indexes: AllBound stores nothing
// beyond them, so the "delta" is a constant-time rebind — no output delta
// is ever computed (needsOutputs is false).
func (b allBoundBackend) applyDelta(shell *Representation, _ *outputDelta) (backend, bool, error) {
	if len(shell.sh.nv.Free) != 0 {
		return nil, false, nil
	}
	be, err := newAllBoundBackend(shell.sh)
	return be, err == nil, err
}

func (b allBoundBackend) needsOutputs() bool { return false }
