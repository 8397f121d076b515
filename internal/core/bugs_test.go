package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// Regression tests for the concurrency-bugfix sweep: the rebuildBatch
// lost-wakeup race, the unvalidated Delete arity, and nondeterministic
// iterator cancellation. All of them run under `go test -race` in CI.

// smallMaintainedDB is a tiny edge relation so rebuilds are fast enough to
// chain many times within one test.
func smallMaintainedDB() (*cq.View, *relation.Database) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	r.MustInsert(2, 3)
	r.MustInsert(3, 1)
	db.Add(r)
	return cq.MustParse("V[bf](x, y) :- R(x, y)"), db
}

// TestMaintainedNoLostWakeup provokes the race between rebuildBatch's
// final staleness check and clearing the rebuilding flag: an Insert
// landing in that window loses its CompareAndSwap, and before the fix its
// churn was never rebuilt — Pending stayed above the budget until some
// unrelated operation happened by. With fraction 0 every insert makes the
// buffer stale, so after all inserts settle Pending must drain to 0
// without any further stimulus.
func TestMaintainedNoLostWakeup(t *testing.T) {
	view, db := smallMaintainedDB()
	m, err := NewMaintained(view, db, 0, WithStrategy(DirectStrategy))
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := relation.Value(10 + w*perWriter + i)
				if err := m.Insert("R", relation.Tuple{v, v + 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// No further Insert/Query stimulus from here on: draining is entirely
	// up to the rebuild chain re-checking staleness after clearing its
	// flag. Polling Pending takes only a read lock and triggers nothing.
	deadline := time.Now().Add(10 * time.Second)
	for m.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lost rebuild wakeup: %d changes still pending with no rebuild in flight", m.Pending())
		}
		m.Quiesce()
		time.Sleep(time.Millisecond)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	it, err := m.Query(relation.Tuple{10})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Drain(it)); got != 1 {
		t.Fatalf("query after drain saw %d tuples, want 1", got)
	}
}

// TestMaintainedLostWakeupWindow pins the race deterministically: the
// test hook parks the rebuild goroutine in the exact window between its
// pre-clear staleness view and clearing the rebuilding flag, an Insert
// lands there (its trigger loses the CompareAndSwap), and the buffered
// churn must still get rebuilt once the parked goroutine resumes. Before
// the fix the wakeup was lost and Pending stayed at 1 forever.
func TestMaintainedLostWakeupWindow(t *testing.T) {
	view, db := smallMaintainedDB()
	m, err := NewMaintained(view, db, 0, WithStrategy(DirectStrategy))
	if err != nil {
		t.Fatal(err)
	}
	inWindow := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	m.testHookPreClear = func() {
		once.Do(func() {
			close(inWindow)
			<-proceed
		})
	}
	if err := m.Insert("R", relation.Tuple{10, 11}); err != nil {
		t.Fatal(err)
	}
	<-inWindow // the first rebuild is parked inside the race window
	if err := m.Insert("R", relation.Tuple{11, 12}); err != nil {
		t.Fatal(err) // this trigger loses its CAS against the parked rebuild
	}
	close(proceed)

	deadline := time.Now().Add(10 * time.Second)
	for m.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lost rebuild wakeup: %d changes still pending", m.Pending())
		}
		m.Quiesce()
		time.Sleep(time.Millisecond)
	}
	it, err := m.Query(relation.Tuple{11})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Drain(it)); got != 1 {
		t.Fatalf("churn from the race window enumerated %d tuples, want 1", got)
	}
}

// TestMaintainedDeleteArity locks the fix for the silently-buffered
// wrong-arity delete: both buffer paths must reject the tuple immediately
// with the typed arity error, leaving nothing pending to poison the next
// rebuild batch.
func TestMaintainedDeleteArity(t *testing.T) {
	view, db := smallMaintainedDB()
	m, err := NewMaintained(view, db, 100, WithStrategy(DirectStrategy)) // huge budget: no auto rebuild
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("R", relation.Tuple{1, 2, 3}); !errors.Is(err, ErrArity) {
		t.Fatalf("Delete wrong arity: err = %v, want ErrArity", err)
	}
	if err := m.Insert("R", relation.Tuple{1}); !errors.Is(err, ErrArity) {
		t.Fatalf("Insert wrong arity: err = %v, want ErrArity", err)
	}
	if got := m.Pending(); got != 0 {
		t.Fatalf("wrong-arity change was buffered: Pending = %d", got)
	}
	// A valid delete still flows through and the rebuild stays healthy.
	if err := m.Delete("R", relation.Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("flush after valid delete: %v", err)
	}
	it, err := m.Query(relation.Tuple{1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Drain(it)); got != 0 {
		t.Fatalf("deleted edge still enumerated %d tuples", got)
	}
}

// blockSource serves a fixed result set and signals when the worker picks
// the request up.
type blockSource struct {
	tuples  []relation.Tuple
	started chan struct{}
}

type sliceIter struct {
	tuples []relation.Tuple
	pos    int
}

func (it *sliceIter) Next() (relation.Tuple, bool) {
	if it.pos >= len(it.tuples) {
		return nil, false
	}
	it.pos++
	return it.tuples[it.pos-1], true
}

func (b *blockSource) Query(vb relation.Tuple) Iterator {
	if b.started != nil {
		close(b.started)
		b.started = nil
	}
	return &sliceIter{tuples: b.tuples}
}

// TestServerCancelledIteratorStops locks the deterministic-cancellation
// contract: once the submitting context is done, Next returns false on
// every subsequent call even while served tuples sit in the buffer — the
// done channel is checked with priority, not raced against the result
// channel.
func TestServerCancelledIteratorStops(t *testing.T) {
	tuples := make([]relation.Tuple, 64)
	for i := range tuples {
		tuples[i] = relation.Tuple{relation.Value(i)}
	}
	started := make(chan struct{})
	src := &blockSource{tuples: tuples, started: started}
	srv, err := NewServer(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.buffer = len(tuples)

	ctx, cancel := context.WithCancel(context.Background())
	it, err := srv.SubmitContext(ctx, relation.Tuple{0})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Give the worker time to fill the (large) buffer, then cancel: the
	// buffered tuples must become unreachable.
	time.Sleep(10 * time.Millisecond)
	cancel()
	for i := 0; i < 32; i++ {
		if _, ok := it.Next(); ok {
			t.Fatal("Next yielded a tuple after cancellation")
		}
	}
}

// TestServerCancelBeforeServe covers the serve-side pre-check it races
// with: a request whose context is cancelled before a worker reaches it
// must come back as an exhausted iterator without the source ever being
// queried.
func TestServerCancelBeforeServe(t *testing.T) {
	src := &blockSource{tuples: []relation.Tuple{{1}}}
	srv, err := NewServer(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.SubmitContext(ctx, relation.Tuple{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestServerCancelUnderLoad hammers SubmitContext with racing
// cancellations; under -race this exercises the serve/Next abort paths
// for ordering violations, and afterwards every iterator must be
// terminated (Next false) rather than wedged.
func TestServerCancelUnderLoad(t *testing.T) {
	tuples := make([]relation.Tuple, 512)
	for i := range tuples {
		tuples[i] = relation.Tuple{relation.Value(i)}
	}
	src := &blockSource{tuples: tuples}
	srv, err := NewServer(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.buffer = 8

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				it, err := srv.SubmitContext(ctx, relation.Tuple{0})
				if err != nil {
					cancel()
					continue
				}
				n := 0
				for {
					if n == 5 {
						cancel()
					}
					_, ok := it.Next()
					if !ok {
						break
					}
					if n >= 5 {
						t.Error("tuple yielded after cancellation")
						break
					}
					n++
				}
				cancel()
			}
		}()
	}
	wg.Wait()
}
