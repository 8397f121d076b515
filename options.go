package cqrep

import (
	"fmt"

	"cqrep/internal/core"
)

// Option customizes Compile, NewMaintained and ResumeMaintained through
// one consolidated functional-option vocabulary. Options that do not apply
// to the consumer are validated but otherwise ignored — WithDeltaApply on
// Compile, for example, is legal and inert — so one option slice can be
// shared between compiling a representation and maintaining it.
type Option func(*config)

// config accumulates the consolidated options. Invalid arguments are
// recorded in err and surfaced by the consuming constructor, keeping the
// option functions themselves infallible.
type config struct {
	build []core.Option
	err   error
}

func newConfig(opts []Option) *config {
	cfg := &config{}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// fail records the first invalid option; later valid options still apply
// so error reporting does not depend on option order.
func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithStrategy forces a representation strategy instead of Auto.
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.build = append(c.build, core.WithStrategy(s)) }
}

// WithTau sets the Theorem-1 threshold τ directly (τ ≥ 1; larger τ trades
// delay for space).
func WithTau(tau float64) Option {
	return func(c *config) { c.build = append(c.build, core.WithTau(tau)) }
}

// WithCover sets the fractional edge cover used by the Theorem-1
// structure (one weight per body atom).
func WithCover(u Cover) Option {
	return func(c *config) { c.build = append(c.build, core.WithCover(u)) }
}

// WithDecomposition supplies a connex tree decomposition for the
// Theorem-2 structure (bags over the normalized view's variable ids).
func WithDecomposition(d *Decomposition) Option {
	return func(c *config) { c.build = append(c.build, core.WithDecomposition(d)) }
}

// WithDelta supplies the per-bag delay assignment for the Theorem-2
// structure; see UniformDelta.
func WithDelta(delta []float64) Option {
	return func(c *config) { c.build = append(c.build, core.WithDelta(delta)) }
}

// WithSpaceBudget asks the Section-6 planner to minimize delay subject to
// the structure using about the given number of entries. A budget the
// planner cannot realize fails Compile with ErrInfeasibleBudget.
func WithSpaceBudget(entries float64) Option {
	return func(c *config) { c.build = append(c.build, core.WithSpaceBudget(entries)) }
}

// WithDelayBudget asks the Section-6 planner to minimize space subject to
// delay at most the given τ. A budget the planner cannot realize fails
// Compile with ErrInfeasibleBudget.
func WithDelayBudget(tau float64) Option {
	return func(c *config) { c.build = append(c.build, core.WithDelayBudget(tau)) }
}

// WithWorkers bounds the goroutines used during compilation, including
// parallel shard sub-builds. n must be at least 1; violating that fails
// the consuming constructor with ErrBadOption. Omit the option for the
// runtime.GOMAXPROCS(0) default. The compiled representation is
// identical for every worker count — parallelism changes only the
// wall-clock.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.fail(fmt.Errorf("%w: worker count %d, need at least 1", ErrBadOption, n))
			return
		}
		c.build = append(c.build, core.WithWorkers(n))
	}
}

// WithShards hash-partitions the database by the values of the view's
// shard variable — the first bound head variable, or the first free one
// for views with no bound variables — and compiles one sub-representation
// per shard, in parallel under the WithWorkers pool. Access requests route
// directly to the owning shard when the shard variable is bound and
// merge-enumerate across shards in global lexicographic order when it is
// free, so a sharded representation enumerates byte-for-byte identically
// to the unsharded one. Under Maintained, buffered churn is routed to its
// shard and a rebuild recompiles only the dirty shards. Planner budgets
// (WithSpaceBudget, WithDelayBudget) apply per shard.
//
// n must be at least 1; violating that fails the consuming constructor
// with ErrBadOption. n = 1 (the default) compiles a single backend.
func WithShards(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.fail(fmt.Errorf("%w: shard count %d, need at least 1", ErrBadOption, n))
			return
		}
		c.build = append(c.build, core.WithShards(n))
	}
}

// WithDeltaApply enables or disables incremental delta maintenance under
// Maintained (default: enabled). When enabled, backends with the delta
// capability — materialized buckets, all-bound indexes, and the Theorem-1
// tree's dictionary rebase — absorb a rebuild batch by patching their
// structure copy-on-write instead of recompiling; everything else (and
// every batch the delta path cannot prove safe) falls back to the full
// recompile. Disabling it forces the recompile path everywhere, which is
// what the repository benchmark's recompile probe (churn-readwrite's
// core.maintain.recompile_ms) measures against, and an escape hatch.
// Compile ignores the option: it only affects rebuilds.
func WithDeltaApply(enabled bool) Option {
	return func(c *config) { c.build = append(c.build, core.WithDeltaApply(enabled)) }
}
