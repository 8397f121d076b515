package httpserve

import (
	"fmt"
	"path/filepath"

	"cqrep/internal/core"
	"cqrep/internal/wal"
)

// wal.go is the serving side of durable maintenance (DESIGN.md §9): when
// Options.WALDir is set, each snapshot load looks for <view>.wal next to
// it and replays the log's buffered-but-uncompiled churn on top of the
// loaded representation before the view goes into the registry. The
// recovered state is then persisted back over the snapshot file (atomic
// temp+rename) and the log compacted, so the next restart replays
// nothing; if persisting fails the log is left untouched — replay is
// idempotent, so serving correctness never depends on compaction
// succeeding. Replay failures (a log for a different view, an arity
// mismatch) fail the load: serving a snapshot while ignoring updates the
// writer had acknowledged as durable would be silent data loss.

// walStatus records one view's recovery outcome, for /readyz and
// /v1/stats.
type walStatus struct {
	path       string
	replayed   int
	compactErr error // non-nil: recovered state served, log not truncated
}

// walPathFor names the update log of a registry entry: <name>.wal inside
// WALDir.
func walPathFor(dir, name string) string {
	return filepath.Join(dir, name+".wal")
}

// recoverWAL replays the update log at walPath onto rep and returns the
// recovered representation (rep itself when the log is empty or absent).
// On a non-empty log the recovered snapshot is saved back to snapPath and
// the log compacted; a failure there is reported in the status but does
// not fail recovery.
func recoverWAL(rep *core.Representation, walPath, snapPath string) (*core.Representation, walStatus, error) {
	st := walStatus{path: walPath}
	entries, err := wal.Replay(walPath)
	if err != nil {
		return nil, st, fmt.Errorf("replaying %s: %w", walPath, err)
	}
	if len(entries) == 0 {
		return rep, st, nil
	}
	// Rebuild under the snapshot's own recipe: a fallback recompile with
	// different options could legally change the enumeration order, and
	// the registry contract (EnumOrder) must survive recovery.
	m, err := core.ResumeMaintained(rep, 1, rebuildOptions(rep)...)
	if err != nil {
		return nil, st, fmt.Errorf("resuming %s for WAL recovery: %w", snapPath, err)
	}
	// No update log is armed for the recovery replay: the entries are
	// already durable in the real log, and truncation happens separately
	// (compactAfterRecovery) only after the recovered snapshot persists.
	for _, e := range entries {
		if err := m.Replay(e.Rel, e.Tuple, e.Del); err != nil {
			return nil, st, fmt.Errorf("replaying %s entry %d: %w", walPath, e.Seq, err)
		}
	}
	if err := m.Flush(); err != nil {
		return nil, st, fmt.Errorf("compiling WAL tail of %s: %w", walPath, err)
	}
	st.replayed = len(entries)
	recovered := m.Rep()
	st.compactErr = compactAfterRecovery(recovered, walPath, snapPath)
	return recovered, st, nil
}

// rebuildOptions reconstructs the build options a loaded snapshot was
// compiled under, from its stats: strategy, shard count, and (for the
// Theorem-1 structure) the realized τ.
func rebuildOptions(rep *core.Representation) []core.Option {
	st := rep.Stats()
	opts := []core.Option{core.WithStrategy(st.Strategy)}
	if st.Shards > 1 {
		opts = append(opts, core.WithShards(st.Shards))
	}
	if st.Strategy == core.PrimitiveStrategy && st.Tau > 0 {
		opts = append(opts, core.WithTau(st.Tau))
	}
	return opts
}

// compactAfterRecovery runs the snapshot-first truncation protocol: save
// the recovered representation over the snapshot file (atomic sibling
// rename), then drop every replayed entry from the log. Any failure
// leaves the log as it was.
func compactAfterRecovery(rep *core.Representation, walPath, snapPath string) error {
	if err := rep.Save(snapPath); err != nil {
		return err
	}
	log, _, err := wal.Open(walPath)
	if err != nil {
		return err
	}
	defer log.Close()
	// The snapshot above already covers every entry; the hook has nothing
	// left to persist.
	log.SetSnapshot(func(uint64) error { return nil })
	return log.Compact(log.LastSeq())
}
