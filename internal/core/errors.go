package core

import "errors"

// Sentinel errors for the public API. Every failure mode of compilation,
// binding, and serving wraps one of these, so callers branch with
// errors.Is instead of matching message strings. The root cqrep package
// re-exports them under the same names.
var (
	// ErrInfeasibleBudget reports that the Section-6 planner could not
	// realize the requested space or delay budget: the LP is infeasible or
	// the budget lies outside the AGM-bounded tradeoff range.
	ErrInfeasibleBudget = errors.New("cqrep: infeasible space/delay budget")

	// ErrBadBinding reports an access request whose bound-variable
	// valuation does not match the view: wrong arity, an unknown variable
	// name, or a missing bound variable.
	ErrBadBinding = errors.New("cqrep: bad binding for access request")

	// ErrClosed reports work submitted to a serving component (an
	// httpserve handler, a coordinator, a Server) that has been closed.
	ErrClosed = errors.New("cqrep: server closed")

	// ErrBadView reports a view that cannot be compiled as given: a syntax
	// error, an unknown base relation, or an atom/relation arity mismatch.
	ErrBadView = errors.New("cqrep: bad view")

	// ErrUnknownStrategy reports a Strategy value outside the menu.
	ErrUnknownStrategy = errors.New("cqrep: unknown strategy")

	// ErrStrategyMismatch reports a strategy that cannot serve the given
	// view (e.g. AllBound over a view with free variables, or the
	// Theorem-1 primitive over a view with none).
	ErrStrategyMismatch = errors.New("cqrep: strategy incompatible with view")

	// ErrBadOption reports an option with an out-of-domain argument, such
	// as a flush batch below 1 or a negative budget.
	ErrBadOption = errors.New("cqrep: invalid option")

	// ErrArity reports a tuple whose length does not match the target
	// relation's arity, on either the insert or the delete path of a
	// maintained view.
	ErrArity = errors.New("cqrep: tuple arity mismatch")

	// ErrBadSnapshot reports a snapshot that cannot be loaded: wrong magic
	// bytes, a checksum mismatch, truncation, or a payload inconsistent
	// with itself.
	ErrBadSnapshot = errors.New("cqrep: bad snapshot")

	// ErrSnapshotVersion reports a snapshot written with a format version
	// this build does not understand.
	ErrSnapshotVersion = errors.New("cqrep: unsupported snapshot version")
)
