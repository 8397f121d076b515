package cqrep

import (
	"context"
	"fmt"
	"iter"

	"cqrep/internal/core"
)

// Representation is a compiled adorned view ready to serve access
// requests. It is immutable after Compile and safe for any number of
// concurrent callers; every enumeration (All2 sequence or Query iterator)
// carries its own state. The base Database must not be mutated while
// queries run; use Maintained for views over changing data.
type Representation struct {
	rep *core.Representation
}

// Compile builds the compressed representation of the adorned view over
// db, choosing the structure with the Section-6 planner unless options
// force one. Non-full views (boolean or projected heads) are extended to
// full views first; their boolean answer is "is the enumeration
// non-empty".
//
// ctx cancels compilation: the parallel Theorem-1/Theorem-2 construction
// pools poll it and Compile returns ctx.Err() promptly — use it to bound
// expensive builds (deadlines) or abandon them (caller went away). A nil
// ctx means context.Background().
//
// Failures wrap the package's sentinel errors: ErrBadView,
// ErrInfeasibleBudget, ErrStrategyMismatch, ErrUnknownStrategy,
// ErrBadOption.
func Compile(ctx context.Context, view *View, db *Database, opts ...Option) (*Representation, error) {
	cfg := newConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	rep, err := core.BuildContext(ctx, view, db, cfg.build...)
	if err != nil {
		return nil, err
	}
	return &Representation{rep: rep}, nil
}

// All2 enumerates the answers to one access request as a range-over-func
// sequence: binding is the bound-variable valuation in BoundNames order,
// and the sequence yields (tuple, nil) for every matching free-variable
// tuple in the representation's enumeration order (identical to the
// Query iterator's order, tuple for tuple). When the enumeration ends
// early — context cancelled, or the underlying stream failed
// mid-enumeration — it yields one final (nil, error) element. A sequence
// that ends without an error element enumerated every answer, so a
// truncated result is never mistaken for a complete one:
//
//	for t, err := range rep.All2(ctx, binding) {
//	    if err != nil {
//	        return err // cancelled or failed: the result above is partial
//	    }
//	    ...
//	}
//
// The sequence checks ctx between tuples, so cancelling it ends even a
// huge enumeration promptly; breaking out of the range loop simply stops
// the pull. Each ranging starts a fresh enumeration.
//
// A binding of the wrong arity is a programming error and panics with an
// error wrapping ErrBadBinding; use Bind to build a checked binding from
// variable names.
func (r *Representation) All2(ctx context.Context, binding Tuple) iter.Seq2[Tuple, error] {
	checkBindingArity(binding, r.rep.View())
	return allSeq2(ctx, func() Iterator { return r.rep.Query(binding) })
}

// checkBindingArity enforces the All2 contract: arity mismatches are
// programming errors and panic with an error wrapping ErrBadBinding. The
// count comes from the view, which an mmap-loaded representation holds
// before its payload decodes, so a corrupt payload surfaces as the
// sequence's error element instead of as a bogus arity panic.
func checkBindingArity(binding Tuple, view *View) {
	if n := len(view.BoundVars()); len(binding) != n {
		panic(fmt.Errorf("%w: binding has %d values for %d bound variables", ErrBadBinding, len(binding), n))
	}
}

// allSeq2 is the enumeration behind Representation.All2 and
// Maintained.All2: each ranging opens a fresh iterator, tuples stream as
// (t, nil) elements, and an early end — ctx cancelled between tuples, or
// a terminal stream error reported through IterErr — yields one final
// (nil, error) element before the sequence stops.
func allSeq2(ctx context.Context, open func() Iterator) iter.Seq2[Tuple, error] {
	if ctx == nil {
		ctx = context.Background()
	}
	return func(yield func(Tuple, error) bool) {
		it := open()
		for {
			if err := ctx.Err(); err != nil {
				yield(nil, err)
				return
			}
			t, ok := it.Next()
			if !ok {
				if err := IterErr(it); err != nil {
					yield(nil, err)
				}
				return
			}
			if !yield(t, nil) {
				return
			}
		}
	}
}

// Query answers an access request through the pull iterator. It is
// safe to call from any number of goroutines; the returned Iterator is
// not itself safe for sharing between goroutines. New code should prefer
// All2, which adds cancellation and yields the terminal error in the
// loop; both enumerate in the same order.
func (r *Representation) Query(binding Tuple) Iterator { return r.rep.Query(binding) }

// QueryArgs is Query with the binding given by variable name; a valuation
// that does not match the view's bound variables fails with an error
// wrapping ErrBadBinding.
func (r *Representation) QueryArgs(args map[string]Value) (Iterator, error) {
	return r.rep.QueryArgs(args)
}

// Bind resolves named bound values into a valuation in BoundNames order,
// wrapping failures with ErrBadBinding.
func (r *Representation) Bind(args map[string]Value) (Tuple, error) { return r.rep.Bind(args) }

// Exists reports whether the access request has any answer — the boolean
// semantics of non-full adorned views (Section 3.3). Safe for concurrent
// use.
func (r *Representation) Exists(binding Tuple) bool { return r.rep.Exists(binding) }

// Stats returns the build statistics.
func (r *Representation) Stats() Stats { return r.rep.Stats() }

// Database returns the base-relation database the representation was
// compiled over. Snapshots carry the base relations, so loaded
// representations have one too — that is what lets ResumeMaintained turn
// a snapshot back into an updatable view. The database is shared with the
// representation: treat it as read-only and route changes through
// Maintained.
func (r *Representation) Database() *Database { return r.rep.Database() }

// View returns the (full) compiled view.
func (r *Representation) View() *View { return r.rep.View() }

// FreeNames returns the output column names of enumerated tuples.
func (r *Representation) FreeNames() []string { return r.rep.FreeNames() }

// BoundNames returns the expected valuation order for All2/Query bindings.
func (r *Representation) BoundNames() []string { return r.rep.BoundNames() }
