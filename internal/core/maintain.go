package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// Maintained wraps a Representation with update support — the paper's
// second open problem (Section 8). The simple, provably-correct strategy
// implemented here is snapshot-plus-amortized-rebuild:
//
//   - Inserts and deletes are buffered under a short write lock; queries
//     answer against the last compiled snapshot (no torn reads).
//   - Once the buffered change count exceeds fraction·|D|, a rebuild is
//     triggered off the request path: the snapshot database is cloned, the
//     batch applied to the clone, a fresh Representation compiled from it,
//     and the (representation, database) pair swapped in atomically.
//     Queries keep draining the old snapshot throughout — its relations are
//     never mutated — giving amortized update cost O(T_C / (fraction·|D|))
//     with zero read stalls.
//   - For sharded representations (WithShards) the batch maps back through
//     the partitioner and only the dirty shards recompile, reusing every
//     clean shard's structure — the amortized cost above divides by the
//     shard count when churn is shard-local (see Representation.rebuildFor).
//
// This is the baseline any dynamic structure must beat; the recent
// dichotomy of Berkholz et al. [8] cited by the paper shows constant-time
// maintenance is impossible for most joins, so an amortized rebuild is the
// honest general-purpose answer.
//
// Maintained is safe for concurrent use: any number of goroutines may call
// Query/Insert/Delete/Flush. Ownership of the database passes to Maintained
// at construction; callers must not mutate it afterwards.
type Maintained struct {
	view *cq.View
	opts []Option

	fraction float64
	rep      atomic.Pointer[Representation]

	mu           sync.RWMutex // guards db, pending, seq, counters, err
	db           *relation.Database
	pending      []change
	seq          uint64 // last assigned change sequence number
	log          UpdateLog
	rebuilds     int
	deltaApplies int
	noopDeletes  int
	err          error
	compactErr   error

	rebuilding atomic.Bool
	// stale is staleLocked() as of the last change to pending or db, and
	// failed is err != nil, so Query and triggerRebuild read them without
	// taking mu, which buffer holds across the update log's append.
	stale  atomic.Bool
	failed atomic.Bool
	wg     sync.WaitGroup

	// testHookPreClear, when set (tests only, before any use), runs right
	// before rebuildBatch clears the rebuilding flag — the window in which
	// a concurrent triggerRebuild loses its CompareAndSwap and relies on
	// the post-clear staleness re-check for liveness.
	testHookPreClear func()
	// testHookBatchTaken runs right after rebuildBatch snapshots its batch
	// and releases the lock — the window in which the snapshot must be
	// independent of the live pending slice.
	testHookBatchTaken func()
}

// UpdateLog is the durable update log Maintained writes before buffering
// (see internal/wal): Append persists one change under the buffer lock so
// the log order is exactly the buffer order, and Compact is invoked after
// every successful rebuild with the highest sequence number the new
// snapshot contains. Implementations decide whether (and how) to actually
// truncate; a failed Append fails the Insert/Delete that caused it — an
// update that is not durable is not acknowledged.
type UpdateLog interface {
	Append(seq uint64, rel string, t relation.Tuple, del bool) error
	Compact(applied uint64) error
}

type change struct {
	seq    uint64
	rel    string
	tuple  relation.Tuple
	delete bool
}

// minChurnBatch floors the staleness budget: fraction·|D| on an empty or
// tiny database degenerates to a rebuild per insert (budget 0), turning
// bulk-loading a fresh Maintained into a compile storm. Batching at least
// this many changes keeps bootstrap amortized; fraction <= 0 still means
// rebuild-on-every-change (the explicit synchronous-maintenance mode).
const minChurnBatch = 32

// NewMaintained compiles the view and arms the rebuild policy. fraction is
// the staleness budget relative to |D| (e.g. 0.1 rebuilds after 10% churn);
// values <= 0 rebuild on every change.
func NewMaintained(view *cq.View, db *relation.Database, fraction float64, opts ...Option) (*Maintained, error) {
	return NewMaintainedContext(context.Background(), view, db, fraction, opts...)
}

// NewMaintainedContext is NewMaintained with cancellation of the initial
// compile. ctx governs only construction: background rebuilds triggered by
// later churn belong to the Maintained's own lifetime, not the
// constructor's, and are bounded by the staleness policy instead.
func NewMaintainedContext(ctx context.Context, view *cq.View, db *relation.Database, fraction float64, opts ...Option) (*Maintained, error) {
	rep, err := BuildContext(ctx, view, db, opts...)
	if err != nil {
		return nil, err
	}
	m := &Maintained{view: view, db: db, opts: opts, fraction: fraction}
	m.rep.Store(rep)
	return m, nil
}

// Insert buffers a tuple insertion into the named base relation. When the
// buffered churn crosses the staleness budget a background rebuild starts;
// Insert itself never blocks on compilation.
func (m *Maintained) Insert(rel string, t relation.Tuple) error {
	return m.buffer(rel, t, false)
}

// Delete buffers a tuple deletion from the named base relation, with the
// same non-blocking rebuild policy as Insert.
func (m *Maintained) Delete(rel string, t relation.Tuple) error {
	return m.buffer(rel, t, true)
}

func (m *Maintained) buffer(rel string, t relation.Tuple, del bool) error {
	m.mu.Lock()
	r, err := m.db.Relation(rel)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	// Both paths must validate arity: a silently buffered wrong-arity
	// delete would never match anything and poison the batch's semantics
	// (historically only inserts were checked).
	if r.Arity() != len(t) {
		m.mu.Unlock()
		op := "inserting"
		if del {
			op = "deleting"
		}
		return fmt.Errorf("%w: %s arity-%d tuple for %s/%d", ErrArity, op, len(t), rel, r.Arity())
	}
	c := change{seq: m.seq + 1, rel: rel, tuple: t.Clone(), delete: del}
	if m.log != nil {
		// Log before buffering: once buffer returns nil the update is
		// durable. A failed append leaves seq and pending untouched, so
		// the caller can retry without a gap in the log.
		if err := m.log.Append(c.seq, c.rel, c.tuple, c.delete); err != nil {
			m.mu.Unlock()
			return fmt.Errorf("core: update log append: %w", err)
		}
	}
	m.seq = c.seq
	m.pending = append(m.pending, c)
	stale := m.noteStaleLocked()
	m.mu.Unlock()
	if stale {
		m.triggerRebuild()
	}
	return nil
}

// SetUpdateLog arms the durable update log. lastSeq is the highest
// sequence number already in the log (0 for a fresh one); new changes are
// numbered after it. Must be called before any Insert/Delete/Replay —
// changes buffered earlier are not retroactively logged.
func (m *Maintained) SetUpdateLog(l UpdateLog, lastSeq uint64) {
	m.mu.Lock()
	m.log = l
	if lastSeq > m.seq {
		m.seq = lastSeq
	}
	m.mu.Unlock()
}

// Replay buffers one change recovered from the update log without
// re-logging it and without triggering a rebuild — recovery replays the
// whole tail and then calls Flush once. Replay is idempotent under the
// relation set semantics: an insert already reflected in the snapshot
// re-applies as a no-op, a delete of an absent tuple is counted in
// NoopDeletes (see the rebuild apply loop) and changes nothing.
func (m *Maintained) Replay(rel string, t relation.Tuple, del bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.db.Relation(rel)
	if err != nil {
		return err
	}
	if r.Arity() != len(t) {
		return fmt.Errorf("%w: replaying arity-%d tuple for %s/%d", ErrArity, len(t), rel, r.Arity())
	}
	m.seq++
	m.pending = append(m.pending, change{seq: m.seq, rel: rel, tuple: t.Clone(), delete: del})
	m.noteStaleLocked()
	return nil
}

// staleLocked reports whether the buffered churn exceeds the policy budget
// fraction·|D|, floored at minChurnBatch so an empty or tiny database does
// not rebuild once per change (fraction <= 0 keeps meaning exactly that).
// Callers hold m.mu (read or write).
func (m *Maintained) staleLocked() bool {
	if len(m.pending) == 0 {
		return false
	}
	budget := m.fraction * float64(m.db.Size())
	if m.fraction > 0 && budget < minChurnBatch {
		budget = minChurnBatch
	}
	return float64(len(m.pending)) > math.Max(budget, 0)
}

// noteStaleLocked publishes staleLocked to the lock-free stale flag and
// returns it. Callers hold m.mu for writing and have just changed pending
// or db.
func (m *Maintained) noteStaleLocked() bool {
	stale := m.staleLocked()
	m.stale.Store(stale)
	return stale
}

// setErrLocked records the standing rebuild error (nil clears it) and
// publishes whether there is one to the lock-free failed flag. Callers
// hold m.mu for writing.
func (m *Maintained) setErrLocked(err error) {
	m.err = err
	m.failed.Store(err != nil)
}

// triggerRebuild starts a background rebuild unless one is already in
// flight or a previous rebuild failed (a standing error pauses automatic
// maintenance — retrying every failing build in a loop would burn CPU
// without making progress; Flush retries after surfacing the error). It
// takes no lock.
func (m *Maintained) triggerRebuild() {
	if m.failed.Load() || !m.rebuilding.CompareAndSwap(false, true) {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.rebuildBatch()
	}()
}

// rebuildBatch performs one build-aside cycle: snapshot the pending batch,
// clone the database, apply, compile, swap. It clears the rebuilding flag
// and re-triggers itself when more churn accumulated during the build.
func (m *Maintained) rebuildBatch() {
	m.mu.RLock()
	n := len(m.pending)
	// Copy the batch under the lock: m.pending[:n] would alias the live
	// backing array that concurrent buffer appends keep writing into —
	// safe only as long as appends never touch an index below n, an
	// invariant one refactor (in-place compaction, reordering, reuse of
	// freed capacity) away from silent batch corruption. The WAL sequence
	// numbers embedded in the batch make that corruption durable, so the
	// snapshot must be independent.
	batch := append([]change(nil), m.pending[:n]...)
	db := m.db
	m.mu.RUnlock()
	if m.testHookBatchTaken != nil {
		m.testHookBatchTaken()
	}

	if n == 0 {
		m.rebuilding.Store(false)
		m.retriggerIfStale()
		return
	}

	clone := db.Clone()
	noops := 0
	var applyErr error
	for _, c := range batch {
		r, err := clone.Relation(c.rel)
		if err != nil {
			applyErr = err
			break
		}
		if c.delete {
			// Deleting an absent tuple is a set-semantics no-op; count it
			// (a client deleting blind, or a WAL replay over a snapshot
			// that already contains the delete) instead of silently
			// swallowing the report.
			if !r.Delete(c.tuple) {
				noops++
			}
		} else if err := r.Insert(c.tuple); err != nil {
			applyErr = err
			break
		}
	}
	// Capable backends absorb the batch through the delta path; sharded
	// representations recompile only the shards whose partition the batch
	// touched; everything else is a full recompile (Representation.rebuildFor).
	var rep *Representation
	deltas := 0
	if applyErr == nil {
		rep, deltas, applyErr = m.rep.Load().rebuildFor(clone, batch, m.opts)
	}

	m.mu.Lock()
	var compactTo uint64
	if applyErr != nil {
		// Keep the batch buffered so no update is lost; further automatic
		// rebuilds are suppressed until Flush observes the error and
		// retries explicitly (see triggerRebuild).
		m.setErrLocked(applyErr)
	} else {
		m.db = clone
		m.pending = append([]change(nil), m.pending[n:]...)
		m.noteStaleLocked()
		m.rebuilds++
		m.deltaApplies += deltas
		m.noopDeletes += noops
		m.rep.Store(rep)
		compactTo = batch[n-1].seq
	}
	log := m.log
	m.mu.Unlock()

	if applyErr == nil && log != nil {
		// The new snapshot contains every change up to compactTo; let the
		// log drop them (behind its snapshot-first protocol). Compaction
		// failures never block maintenance — the log just stays longer.
		if cerr := log.Compact(compactTo); cerr != nil {
			m.mu.Lock()
			m.compactErr = cerr
			m.mu.Unlock()
		}
	}

	if m.testHookPreClear != nil {
		m.testHookPreClear()
	}
	m.rebuilding.Store(false)
	m.retriggerIfStale()
}

// retriggerIfStale re-examines staleness after the rebuilding flag has
// been cleared and chains another rebuild if churn warrants one. The
// staleness check MUST happen after Store(false): a triggerRebuild racing
// between an earlier staleness snapshot and the flag clear loses its CAS,
// and if that churn were only accounted before the clear the wakeup would
// be lost — maintenance would stall until the next unrelated Insert or
// Query.
func (m *Maintained) retriggerIfStale() {
	m.mu.RLock()
	stale := m.err == nil && m.staleLocked()
	m.mu.RUnlock()
	if stale {
		m.triggerRebuild()
	}
}

// Flush synchronously applies all buffered changes: it waits for any
// in-flight background rebuild, then compiles whatever is still pending.
func (m *Maintained) Flush() error {
	for {
		m.Quiesce()
		m.mu.Lock()
		n := len(m.pending)
		err := m.err
		m.setErrLocked(nil)
		m.mu.Unlock()
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if m.rebuilding.CompareAndSwap(false, true) {
			m.rebuildBatch()
		}
	}
}

// Quiesce blocks until no background rebuild is in flight. Afterwards the
// snapshot reflects every change that was buffered before the last rebuild
// trigger (tests use it to observe rebuild effects deterministically).
func (m *Maintained) Quiesce() { m.wg.Wait() }

// Query answers an access request against the current snapshot. It takes
// no lock, fresh or stale, so it never waits on a writer's buffering or
// log append, and it never blocks on a rebuild: when the snapshot is past
// its staleness budget a background rebuild is triggered and the query
// proceeds against the old (consistent) snapshot. Queries do not fail when maintenance does —
// after a rebuild failure they keep serving the last good snapshot; the
// failure is reported by Err and by the next Flush, which retries it.
func (m *Maintained) Query(vb relation.Tuple) (Iterator, error) {
	return m.current().Query(vb), nil
}

// current is the snapshot a read answers from, after triggering the
// rebuild a stale view is due.
func (m *Maintained) current() *Representation {
	if m.stale.Load() {
		m.triggerRebuild()
	}
	return m.rep.Load()
}

// Err returns the error of the most recent failed rebuild, if any, without
// clearing it. While it is non-nil automatic rebuilds are paused and the
// failed batch stays buffered; Flush clears the error and retries.
func (m *Maintained) Err() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.err
}

// Exists reports whether the access request has any answer in the current
// snapshot, through the backend's own membership check (a bucket or index
// probe where it has one) rather than an enumeration. The error is a
// snapshot's that failed to decode.
func (m *Maintained) Exists(vb relation.Tuple) (bool, error) {
	r := m.current()
	if err := r.ensure(); err != nil {
		return false, err
	}
	return r.Exists(vb), nil
}

// Pending returns the number of buffered, not-yet-applied changes.
func (m *Maintained) Pending() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pending)
}

// Rebuilds returns how many times the representation was recompiled.
func (m *Maintained) Rebuilds() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.rebuilds
}

// DeltaApplies returns how many backends absorbed a change batch through
// the delta-application path instead of a recompile (per rebuild cycle,
// one for an unsharded backend, up to the dirty-shard count for sharded
// representations).
func (m *Maintained) DeltaApplies() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.deltaApplies
}

// NoopDeletes returns how many buffered deletes targeted a tuple that was
// not present when the batch applied — set-semantics no-ops that earlier
// versions silently swallowed.
func (m *Maintained) NoopDeletes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.noopDeletes
}

// LastSeq returns the sequence number of the most recently buffered
// change (0 before the first).
func (m *Maintained) LastSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.seq
}

// CompactErr returns the error of the most recent failed update-log
// compaction, if any. Compaction failures never pause maintenance — the
// log merely keeps entries the snapshot already contains.
func (m *Maintained) CompactErr() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.compactErr
}

// Rep exposes the current snapshot's representation (for stats).
func (m *Maintained) Rep() *Representation { return m.rep.Load() }

// ResumeMaintained arms maintenance over an already-compiled
// representation — typically one loaded from a snapshot, whose frame
// carries the base relations it was compiled over. Recovery pairs it with
// an update log: load the snapshot, ResumeMaintained, SetUpdateLog with
// the log's last sequence, Replay the log's entries, Flush.
func ResumeMaintained(rep *Representation, fraction float64, opts ...Option) (*Maintained, error) {
	if err := rep.ensure(); err != nil {
		return nil, err
	}
	if rep.sh == nil {
		return nil, fmt.Errorf("%w: representation carries no base database", ErrBadSnapshot)
	}
	m := &Maintained{view: rep.orig, db: rep.sh.db, opts: opts, fraction: fraction}
	m.rep.Store(rep)
	return m, nil
}
