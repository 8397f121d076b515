package cqrep

import "cqrep/internal/core"

// Sentinel errors of the public API. Every failure returned by Compile,
// the binding helpers, snapshots and Maintained wraps one of these, so
// callers branch with errors.Is / errors.As instead of matching message
// strings:
//
//	rep, err := cqrep.Compile(ctx, view, db, cqrep.WithDelayBudget(2))
//	switch {
//	case errors.Is(err, cqrep.ErrInfeasibleBudget):
//		// relax the budget and retry
//	case errors.Is(err, context.Canceled):
//		// the caller gave up mid-compilation
//	}
var (
	// ErrInfeasibleBudget: the Section-6 planner cannot realize the
	// requested space or delay budget for this view and database.
	ErrInfeasibleBudget = core.ErrInfeasibleBudget
	// ErrBadBinding: an access request's valuation does not match the
	// view's bound variables (wrong arity, unknown or missing name).
	ErrBadBinding = core.ErrBadBinding
	// ErrBadView: the view cannot be parsed or compiled as given (syntax,
	// unknown base relation, arity mismatch).
	ErrBadView = core.ErrBadView
	// ErrUnknownStrategy: a Strategy value outside the menu.
	ErrUnknownStrategy = core.ErrUnknownStrategy
	// ErrStrategyMismatch: the forced strategy cannot serve this view.
	ErrStrategyMismatch = core.ErrStrategyMismatch
	// ErrBadOption: an option argument outside its domain (worker count
	// < 1, negative budget, ...).
	ErrBadOption = core.ErrBadOption
	// ErrArity: a Maintained.Insert/Delete tuple whose length does not
	// match the target relation's arity.
	ErrArity = core.ErrArity
	// ErrBadSnapshot: a snapshot stream that cannot be loaded — wrong
	// magic bytes, checksum mismatch, truncation, or an inconsistent
	// payload.
	ErrBadSnapshot = core.ErrBadSnapshot
	// ErrSnapshotVersion: a snapshot written with a format version this
	// build does not understand.
	ErrSnapshotVersion = core.ErrSnapshotVersion
)
