package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cqrep"
	"cqrep/internal/core"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// flushEvery is the writer's cadence: every batch is compiled and visible
// before the next one starts, so updates per second prices complete
// maintenance and not buffering. It is core's staleness floor, as in E20.
const flushEvery = 32

// walFlushPolicy states the durability the write path is measured under.
// The log is never fsynced: an acknowledged update survives a process
// crash, not a power loss. It is the code's only policy today.
const walFlushPolicy = "none (write, no fsync)"

// A churnStack is a maintained view with its update log and the snapshot
// file compaction keeps rewriting.
type churnStack struct {
	m             *cqrep.Maintained
	walPath       string
	snapshotPath  string
	snapshotBytes int64
}

// setupChurn is compile → snapshot → attach the log. The huge staleness
// budget means only the writer's own flushes compile, so batch boundaries
// are the same on every run.
func setupChurn(dir string, fx *fixture, extra ...cqrep.Option) (*churnStack, error) {
	view, err := cqrep.Parse(fx.view)
	if err != nil {
		return nil, err
	}
	m, err := cqrep.NewMaintained(context.Background(), view, fx.db.Clone(), 1e9, fx.pubOpts(extra...)...)
	if err != nil {
		return nil, err
	}
	cs := &churnStack{m: m, walPath: filepath.Join(dir, "view.wal"), snapshotPath: filepath.Join(dir, "view.cqs")}
	if err := m.Snapshot().Save(cs.snapshotPath); err != nil {
		return nil, err
	}
	st, err := os.Stat(cs.snapshotPath)
	if err != nil {
		return nil, err
	}
	cs.snapshotBytes = st.Size()
	if _, err := m.AttachWAL(cs.walPath, cs.snapshotPath); err != nil {
		return nil, err
	}
	return cs, nil
}

func (cs *churnStack) close() error {
	cs.m.Quiesce()
	return cs.m.Close()
}

// churnScript is the seeded update sequence for fx: steps updates of the
// fixture's churn relation, which is binary on every fixture. It does not
// use workload.ChurnScript, whose mix is 70% inserts: under it the database
// grew all through a window, reader p99 climbed from 184 to 342 µs between
// the first and the last slice of one run, and a faster writer, getting
// further through the script, would have measured a different database.
// This script holds the database still. Updates come in pairs that replace
// one tuple of a row by another: delete (x,p), insert (x,p') with p' absent,
// so every row keeps its size and every access request its answer count.
// Rows are drawn Zipf(1.1) over the first column's domain — hub-heavy churn,
// the regime bucket-local delta maintenance exists for. A batch of
// flushEvery steps is fifteen such pairs and then two deletes of tuples that
// are not there, which keep the no-op path exercised; no pair straddles a
// flush, so no snapshot ever shows a row between its delete and its insert.
// steps is rounded up to whole batches.
func churnScript(seed int64, fx *fixture, steps int) ([]workload.ChurnOp, error) {
	rel, err := fx.db.Relation(fx.churnRel)
	if err != nil {
		return nil, err
	}
	if rel.Arity() != 2 {
		return nil, fmt.Errorf("churn relation %s has arity %d, the script replaces pairs", fx.churnRel, rel.Arity())
	}
	rng := rand.New(rand.NewSource(seed + 5))
	type row struct {
		vals []relation.Value
		has  map[relation.Value]bool
	}
	rows := map[relation.Value]*row{}
	for _, t := range rel.Tuples() {
		r := rows[t[0]]
		if r == nil {
			r = &row{has: map[relation.Value]bool{}}
			rows[t[0]] = r
		}
		r.vals = append(r.vals, t[1])
		r.has[t[1]] = true
	}
	z := workload.NewZipf(fx.churnDomain[0], 1.1)
	// pick draws a row that can give up a tuple and take another.
	pick := func() (relation.Value, *row, error) {
		for try := 0; try < 1024; try++ {
			x := relation.Value(z.Draw(rng))
			if r := rows[x]; r != nil && len(r.vals) > 0 && len(r.vals) < fx.churnDomain[1] {
				return x, r, nil
			}
		}
		return 0, nil, fmt.Errorf("churn relation %s has no row that is neither empty nor full", fx.churnRel)
	}
	absent := func(r *row) relation.Value {
		for {
			if v := relation.Value(rng.Intn(fx.churnDomain[1])); !r.has[v] {
				return v
			}
		}
	}
	const blind = 2 // no-op deletes closing every batch
	ops := make([]workload.ChurnOp, 0, steps+flushEvery)
	for len(ops) < steps {
		for n := 0; n < (flushEvery-blind)/2; n++ {
			x, r, err := pick()
			if err != nil {
				return nil, err
			}
			i := rng.Intn(len(r.vals))
			out, in := r.vals[i], absent(r)
			r.vals[i] = in
			delete(r.has, out)
			r.has[in] = true
			ops = append(ops,
				workload.ChurnOp{Rel: fx.churnRel, Tuple: relation.Tuple{x, out}, Del: true},
				workload.ChurnOp{Rel: fx.churnRel, Tuple: relation.Tuple{x, in}})
		}
		for n := 0; n < blind; n++ {
			x, r, err := pick()
			if err != nil {
				return nil, err
			}
			ops = append(ops, workload.ChurnOp{Rel: fx.churnRel, Tuple: relation.Tuple{x, absent(r)}, Del: true})
		}
	}
	return ops, nil
}

// scriptSteps sizes a script so that a window of the given length does not
// wrap around it at the update rates this code reaches.
func scriptSteps(seconds float64) int {
	steps := max(flushEvery*8, int(4096*seconds))
	return steps - steps%flushEvery
}

func applyOp(m *cqrep.Maintained, op workload.ChurnOp) error {
	if op.Del {
		return m.Delete(op.Rel, op.Tuple)
	}
	return m.Insert(op.Rel, op.Tuple)
}

// A churnResult is what one read-beside-write window observed.
type churnResult struct {
	readers  *recorder
	updates  [windowSlices]float64 // acknowledged and compiled, per slice
	ack      [windowSlices]hist    // Insert/Delete call
	flush    [windowSlices]hist    // Flush call: update → visible
	applied  int                   // script steps executed, warm-up included
	firstErr error                 // the update that failed, if one did
}

// runChurn runs the writer and the readers side by side for a warm-up and
// then the window. The writer walks the script, flushing every flushEvery
// steps; each reader draws requests Zipf(1.1) from the fixture's request
// list and drains Query in-process. A query or stream error is a reader's
// failure, and so is an answer count other than want's: the script never
// changes a row's size, so where the view's answer counts follow from row
// sizes alone (want non-nil) they hold under every snapshot.
func runChurn(m *cqrep.Maintained, fx *fixture, ops []workload.ChurnOp, want []int, readers int, window time.Duration, seed int64) *churnResult {
	warm := time.Duration(float64(window) * warmupShare)
	start := time.Now().Add(warm)
	end := start.Add(window)
	res := &churnResult{}
	var stop atomic.Bool
	var wg sync.WaitGroup
	recs := make([]*recorder, readers)
	for r := 0; r < readers; r++ {
		recs[r] = newRecorder(start, window)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 101*int64(r+1)))
			z := workload.NewZipf(len(fx.reqs), 1.1)
			for !stop.Load() {
				k := z.Draw(rng)
				t0 := time.Now()
				first, n, err := drainQuery(m, fx.reqs[k], t0)
				if err == nil && want != nil && n != want[k] {
					err = fmt.Errorf("%v: %d answers, the view has %d under every snapshot", fx.reqs[k], n, want[k])
				}
				recs[r].done(t0, time.Now(), first, n, err)
			}
		}(r)
	}

	measured := false // a whole batch has run after the warm-up
	var batchBegan time.Time
	for i := 0; ; i++ {
		t0 := time.Now()
		if i%flushEvery == 0 {
			// The writer stops on a batch boundary, and not before one batch
			// has been measured, however slow a flush is against the window.
			if measured && !t0.Before(end) {
				break
			}
			batchBegan = t0
		}
		err := applyOp(m, ops[i%len(ops)])
		t1 := time.Now()
		if err == nil && (i+1)%flushEvery == 0 {
			err = m.Flush()
			t2 := time.Now()
			if !t2.Before(start) {
				res.flush[sliceOf(start, window, t2)].add(t2.Sub(t1))
				if err == nil {
					credit(&res.updates, start, window, batchBegan, t2, flushEvery)
					measured = measured || !batchBegan.Before(start)
				}
			}
		}
		if !t1.Before(start) {
			res.ack[sliceOf(start, window, t1)].add(t1.Sub(t0))
		}
		res.applied = i + 1
		if err != nil {
			res.firstErr = err
			break // the log and the view may now disagree; stop writing
		}
	}
	stop.Store(true)
	wg.Wait()
	res.readers = recs[0]
	for _, r := range recs[1:] {
		res.readers.merge(r)
	}
	return res
}

func drainQuery(m *cqrep.Maintained, vb relation.Tuple, t0 time.Time) (first time.Duration, n int, err error) {
	it, err := m.Query(vb)
	if err != nil {
		return 0, 0, err
	}
	first, n = drain(it, t0)
	return first, n, core.IterErr(it)
}

// writeMetrics are the write-path numbers of a churn window.
func (res *churnResult) writeMetrics(window time.Duration) map[string]measure {
	return map[string]measure{
		"core.maintain.updates_per_s":     rate(res.updates, window),
		"core.maintain.update_ack_p99_us": percentile(&res.ack, 0.99, 1e3),
		"core.maintain.flush_p99_ms":      percentile(&res.flush, 0.99, 1e6),
	}
}

// replayTail is how many acknowledged updates are left uncompiled in the
// log before the restart check, so the replay has something to replay.
const replayTail = flushEvery / 2

// verifyChurn checks the two things a maintained view promises. First, the
// state after the window equals a fresh compile of the database with the
// same updates applied. Then, with replayTail further updates acknowledged
// but not flushed, the view is closed and brought back from the files on
// disk alone — snapshot load, log replay, flush — and must equal a fresh
// compile again. db is the fixture's database before any update.
func verifyChurn(cs *churnStack, fx *fixture, db *relation.Database, ops []workload.ChurnOp, applied int) error {
	final := db.Clone()
	step := func(op workload.ChurnOp) error {
		r, err := final.Relation(op.Rel)
		if err != nil {
			return err
		}
		if op.Del {
			r.Delete(op.Tuple)
			return nil
		}
		return r.Insert(op.Tuple)
	}
	for i := 0; i < applied; i++ {
		if err := step(ops[i%len(ops)]); err != nil {
			return err
		}
	}
	if err := cs.m.Flush(); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	if err := cs.m.CompactErr(); err != nil {
		return fmt.Errorf("log compaction: %w", err)
	}
	if err := sameAnswers(cs.m, fx, final, "maintained state"); err != nil {
		return err
	}

	for i := applied; i < applied+replayTail; i++ {
		op := ops[i%len(ops)]
		if err := applyOp(cs.m, op); err != nil {
			return fmt.Errorf("tail update: %w", err)
		}
		if err := step(op); err != nil {
			return err
		}
	}
	if err := cs.close(); err != nil {
		return err
	}
	rep, err := cqrep.Load(cs.snapshotPath)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	m, err := cqrep.ResumeMaintained(rep, 1e9, fx.pubOpts()...)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	replayed, err := m.AttachWAL(cs.walPath, cs.snapshotPath)
	if err != nil {
		return fmt.Errorf("restart: replaying the log: %w", err)
	}
	defer m.Close()
	if replayed != replayTail {
		return fmt.Errorf("restart: log replayed %d updates, %d were acknowledged after the last flush", replayed, replayTail)
	}
	if err := m.Flush(); err != nil {
		return fmt.Errorf("restart: flush: %w", err)
	}
	return sameAnswers(m, fx, final, "state after restart and replay")
}

// sameAnswers compares m, request by request, with a fresh compile of db.
func sameAnswers(m *cqrep.Maintained, fx *fixture, db *relation.Database, what string) error {
	fresh, err := core.Build(fx.parsedView(), db, fx.coreOpts()...)
	if err != nil {
		return fmt.Errorf("fresh compile: %w", err)
	}
	var got, want []byte
	for _, vb := range fx.reqs {
		it, err := m.Query(vb)
		if err != nil {
			return err
		}
		got = encodeTuples(got[:0], core.Drain(it))
		if err := core.IterErr(it); err != nil {
			return err
		}
		wit := fresh.Query(vb)
		want = encodeTuples(want[:0], core.Drain(wit))
		if err := core.IterErr(wit); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s diverges from a fresh compile of the final database at %v", what, vb)
		}
	}
	return nil
}
