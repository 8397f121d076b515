// Package cqrep compiles adorned views — conjunctive queries whose head
// variables are marked bound (b) or free (f) — over a relational database
// into compressed representations that answer access requests (valuations
// of the bound variables) by enumerating matching free-variable tuples,
// with a tunable tradeoff between representation space and per-tuple
// delay. It is a from-scratch Go reproduction of "Compressed
// Representations of Conjunctive Query Results" (Shaleen Deep and
// Paraschos Koutris, PODS 2018, arXiv:1709.06186), grown into a
// concurrent serving system.
//
// # Compiling and enumerating
//
// Compile is the single entry point. It is context-aware: cancelling ctx
// aborts even a parallel multi-second build promptly.
//
//	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
//	rep, err := cqrep.Compile(ctx, view, db,
//	    cqrep.WithSpaceBudget(1e6), // Section-6 planner: minimize delay under budget
//	    cqrep.WithWorkers(8))       // parallel compilation
//
// Answers stream through Go 1.23+ range-over-func iteration; the sequence
// checks ctx between tuples, so a cancelled context ends even a huge
// enumeration promptly, and an early end arrives as a final error
// element:
//
//	for t, err := range rep.All2(ctx, cqrep.Tuple{1, 3}) {
//	    if err != nil {
//	        return err // cancelled or failed: the result is partial
//	    }
//	    ...
//	}
//
// The pull iterator (rep.Query(vb).Next()) remains available and
// enumerates in exactly the same order.
//
// Failures wrap typed sentinel errors — ErrBadView, ErrInfeasibleBudget,
// ErrBadBinding, ErrStrategyMismatch, ErrUnknownStrategy,
// ErrBadOption, ErrArity, ErrBadSnapshot, ErrSnapshotVersion — so callers
// branch with errors.Is instead of matching message strings.
//
// # Compile once, serve many
//
// The preprocessing cost T_C is paid once and persisted: Save writes a
// compiled representation to a versioned, checksummed binary snapshot and
// Load reads it back without recompiling, enumerating byte-for-byte
// identically to the representation that was saved (WriteTo and
// ReadRepresentation are the io.Writer/io.Reader forms).
//
//	rep, _ := cqrep.Compile(ctx, view, db)
//	_ = rep.Save("view.cqs")          // this process pays T_C
//
//	rep2, err := cqrep.Load("view.cqs") // later processes just load
//	if errors.Is(err, cqrep.ErrBadSnapshot) { /* corrupt or foreign file */ }
//
// cmd/cqcli exposes the same split as `cqcli compile -o view.cqs` and
// `cqcli serve view.cqs`; DESIGN.md §4 specifies the wire format. For
// remote clients, cmd/cqserve serves snapshots over HTTP — NDJSON query
// streaming, a per-view registry, hot reload, graceful shutdown — with
// cmd/cqload as its load generator; DESIGN.md §5 specifies the wire API.
//
// # Serving, maintenance, and sharding
//
// A Representation is safe for concurrent readers: many goroutines may
// query one compiled representation at once, and cmd/cqserve serves each
// HTTP request on its own handler goroutine that way. Result streams carry
// a terminal error readable with IterErr, so a stream that was truncated —
// a lazily mapped snapshot that failed to decode — is distinguishable from
// one that completed.
// NewMaintained wraps a representation with buffered updates and
// amortized build-aside rebuilds: queries never stall on compilation.
//
// WithShards(n) hash-partitions the database by the view's shard variable
// and compiles one sub-representation per shard: requests route to the
// owning shard (or merge-enumerate when the shard variable is free),
// answers stay byte-for-byte identical to the unsharded representation,
// snapshots nest one frame per shard, and a Maintained rebuild recompiles
// only the shards the buffered churn touched.
//
// # Paper structure map
//
//   - internal/primitive implements Theorem 1: a delay-balanced tree over
//     f-intervals plus a heavy-pair dictionary, with space
//     O~(|D| + Π_F |R_F|^{u_F}/τ^α) and delay O~(τ).
//   - internal/decomp implements Theorem 2: per-bag Theorem-1 structures
//     over a V_b-connex tree decomposition, with space O~(|D| + |D|^f) and
//     delay O~(|D|^h) for the δ-width f and δ-height h.
//   - internal/core implements the Section-6 planner (MinDelayCover /
//     MinSpaceCover) plus the production extensions: parallel compilation,
//     concurrent serving, and maintenance under updates.
//
// Compilation is parallel and deterministic: Compile with any worker count
// produces the same structure. Built representations are immutable and
// safe for concurrent queries.
//
// See README.md for the quickstart, DESIGN.md for the system inventory
// and the public-API-to-internal map, EXPERIMENTS.md for the
// paper-versus-measured record, and cmd/cqbench for the experiment
// runner.
package cqrep
