package cqrep

import (
	"context"
	"iter"

	"cqrep/internal/core"
	"cqrep/internal/wal"
)

// Maintained wraps a Representation with update support: inserts and
// deletes are buffered, queries answer against the last compiled snapshot
// (no torn reads), and once the buffered churn exceeds fraction·|D| a
// rebuild runs off the request path — build-aside with an atomic snapshot
// swap, so queries never stall on compilation.
//
// Maintained is safe for concurrent use: any number of goroutines may
// call All2/Query/Insert/Delete/Flush. Ownership of the database passes to
// Maintained at construction; callers must not mutate it afterwards.
type Maintained struct {
	m   *core.Maintained
	log *wal.Log // non-nil once AttachWAL armed durability (wal.go)
}

// NewMaintained compiles the view and arms the rebuild policy. fraction
// is the staleness budget relative to |D| (e.g. 0.1 rebuilds after 10%
// churn); values <= 0 rebuild on every change. ctx cancels the initial
// compile only — background rebuilds belong to the Maintained's own
// lifetime. The options are reused for every rebuild.
func NewMaintained(ctx context.Context, view *View, db *Database, fraction float64, opts ...Option) (*Maintained, error) {
	cfg := newConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	m, err := core.NewMaintainedContext(ctx, view, db, fraction, cfg.build...)
	if err != nil {
		return nil, err
	}
	return &Maintained{m: m}, nil
}

// Insert buffers a tuple insertion into the named base relation. When the
// buffered churn crosses the staleness budget a background rebuild
// starts; Insert itself never blocks on compilation.
func (m *Maintained) Insert(rel string, t Tuple) error { return m.m.Insert(rel, t) }

// Delete buffers a tuple deletion from the named base relation, with the
// same non-blocking rebuild policy as Insert.
func (m *Maintained) Delete(rel string, t Tuple) error { return m.m.Delete(rel, t) }

// All2 enumerates one access request against the current snapshot as a
// range-over-func sequence, with the same contract as
// Representation.All2: ctx cancels mid-enumeration, an early end — by
// cancellation, or by a snapshot query failure — yields one final
// (nil, error) element, and a binding of the wrong arity panics with an
// error wrapping ErrBadBinding. Like Query it never blocks on maintenance:
// each ranging of the sequence picks up the freshest snapshot (triggering
// a background rebuild if stale) and then enumerates that one consistent
// snapshot even if a rebuild swaps in a fresher one midway.
func (m *Maintained) All2(ctx context.Context, binding Tuple) iter.Seq2[Tuple, error] {
	checkBindingArity(binding, m.m.Rep().View())
	return allSeq2(ctx, m.open(binding))
}

// open adapts the snapshot Query to allSeq2's opener: a query failure
// (none exist today; guard anyway) becomes an exhausted iterator whose
// terminal error carries the failure, so All2 surfaces it instead of
// yielding a plausible-looking empty enumeration.
func (m *Maintained) open(binding Tuple) func() Iterator {
	return func() Iterator {
		it, err := m.m.Query(binding)
		if err != nil {
			return errIterator{err: err}
		}
		return it
	}
}

// errIterator is the already-exhausted stream with a terminal error.
type errIterator struct{ err error }

func (errIterator) Next() (Tuple, bool) { return nil, false }
func (e errIterator) Err() error        { return e.err }

// Query answers an access request against the current snapshot through
// the pull iterator. It never blocks on a rebuild: when the
// snapshot is past its staleness budget a background rebuild is triggered
// and the query proceeds against the old (consistent) snapshot.
func (m *Maintained) Query(binding Tuple) (Iterator, error) { return m.m.Query(binding) }

// Exists reports whether the access request has any answer in the
// current snapshot.
func (m *Maintained) Exists(binding Tuple) (bool, error) { return m.m.Exists(binding) }

// Flush synchronously applies all buffered changes: it waits for any
// in-flight background rebuild, then compiles whatever is still pending.
// A failed rebuild's error is returned (and cleared for retry).
func (m *Maintained) Flush() error { return m.m.Flush() }

// Err returns the error of the most recent failed background rebuild, if
// any, without clearing it. While it is non-nil automatic rebuilds are
// paused and the failed batch stays buffered; Flush clears and retries.
func (m *Maintained) Err() error { return m.m.Err() }

// Pending returns the number of buffered, not-yet-applied changes.
func (m *Maintained) Pending() int { return m.m.Pending() }

// Rebuilds returns how many times the representation was recompiled.
func (m *Maintained) Rebuilds() int { return m.m.Rebuilds() }

// Quiesce blocks until no background rebuild is in flight.
func (m *Maintained) Quiesce() { m.m.Quiesce() }

// Snapshot returns the current compiled snapshot as a Representation —
// a stable, immutable view of the data as of the last rebuild, safe for
// concurrent readers while updates keep flowing in.
func (m *Maintained) Snapshot() *Representation { return &Representation{rep: m.m.Rep()} }
