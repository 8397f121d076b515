package cqrep

import (
	"fmt"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/decomp"
	"cqrep/internal/fractional"
	"cqrep/internal/relation"
)

// The data-model and planner vocabulary of the public API. These are
// aliases onto the internal implementation types, so values returned by
// the facade interoperate with every exported method without conversion;
// DESIGN.md ("Public API") maps each exported symbol to its internal
// owner.
type (
	// Value is a single attribute value (int64 domain).
	Value = relation.Value
	// Tuple is an ordered row of values — a base tuple, a bound-variable
	// valuation, or an enumerated answer.
	Tuple = relation.Tuple
	// Relation is a named, deduplicated, sorted set of tuples.
	Relation = relation.Relation
	// Database is a named collection of base relations.
	Database = relation.Database
	// View is a parsed adorned view: a conjunctive query whose head
	// variables are marked bound (b) or free (f).
	View = cq.View
	// Cover is a fractional edge cover — one weight per body atom — used
	// by the Theorem-1 structure.
	Cover = fractional.Cover
	// Decomposition is a V_b-connex tree decomposition for the Theorem-2
	// structure: bags over the normalized view's variable ids.
	Decomposition = decomp.Decomposition
	// Strategy selects the compressed representation.
	Strategy = core.Strategy
	// Stats describes a built representation.
	Stats = core.Stats
	// Iterator is the pull-style access-request result stream;
	// Representation.All2 is the range-over-func equivalent.
	Iterator = core.Iterator
)

// The strategy menu (see Strategy).
const (
	// Auto picks AllBound for boolean views, honors explicit budgets with
	// the Theorem-1 primitive, and otherwise builds the constant-delay
	// Theorem-2 structure over a searched connex decomposition.
	Auto = core.Auto
	// PrimitiveStrategy is the Theorem-1 delay-balanced tree structure.
	PrimitiveStrategy = core.PrimitiveStrategy
	// DecompositionStrategy is the Theorem-2 per-bag structure.
	DecompositionStrategy = core.DecompositionStrategy
	// MaterializedStrategy materializes and indexes the full output.
	MaterializedStrategy = core.MaterializedStrategy
	// DirectStrategy evaluates every request from scratch.
	DirectStrategy = core.DirectStrategy
	// AllBoundStrategy answers boolean (all-bound) views with index probes.
	AllBoundStrategy = core.AllBoundStrategy
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return relation.NewDatabase() }

// NewRelation returns an empty relation with the given name and arity.
func NewRelation(name string, arity int) *Relation { return relation.NewRelation(name, arity) }

// Parse parses an adorned view, e.g.
//
//	V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)
//
// where the adornment letters mark each head variable bound or free.
// Syntax and arity failures wrap ErrBadView.
func Parse(input string) (*View, error) {
	v, err := cq.Parse(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadView, err)
	}
	return v, nil
}

// MustParse is Parse that panics on error, for tests and fixed view
// literals.
func MustParse(input string) *View {
	v, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return v
}

// UniformDelta returns the uniform delay assignment δ(t) = x for every
// non-root bag of d, the tunable knob of Example 10.
func UniformDelta(d *Decomposition, x float64) []float64 { return decomp.UniformDelta(d, x) }

// AllOnesCover returns the trivial fractional edge cover assigning weight
// 1 to every one of the view's n body atoms.
func AllOnesCover(n int) Cover {
	u := make(Cover, n)
	for i := range u {
		u[i] = 1
	}
	return u
}

// Drain collects an iterator fully.
func Drain(it Iterator) []Tuple { return core.Drain(it) }

// IterErr returns the terminal error of a result stream, or nil when the
// iterator does not report one. It is meaningful once Next has returned
// false: nil means the enumeration completed, and anything else is the
// underlying source's mid-enumeration failure — for a representation
// opened with LoadMmap, an ErrBadSnapshot payload that failed to decode
// at first touch. Iterators over an eagerly loaded or compiled
// Representation never fail and report nil.
func IterErr(it Iterator) error { return core.IterErr(it) }
