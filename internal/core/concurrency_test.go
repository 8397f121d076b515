package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// concurrencyFixture builds a triangle view instance with enough data that
// both strategies exercise real tree/dictionary structure, plus a sample of
// bound valuations (many with non-empty answers).
func concurrencyFixture(t testing.TB, edges int) (*cq.View, *relation.Database, []relation.Tuple) {
	t.Helper()
	db := workload.TriangleDB(7, edges/12, edges/2)
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	r, err := db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	vbs := make([]relation.Tuple, 48)
	for i := range vbs {
		row := r.Row(rng.Intn(r.Len()))
		vbs[i] = relation.Tuple{row[0], row[1]}
	}
	return view, db, vbs
}

// drainAll maps each valuation to its drained result.
func drainAll(rep *Representation, vbs []relation.Tuple) [][]relation.Tuple {
	out := make([][]relation.Tuple, len(vbs))
	for i, vb := range vbs {
		out[i] = Drain(rep.Query(vb))
	}
	return out
}

// TestConcurrentQuery hammers one Representation from many goroutines and
// checks every drained stream against the sequential baseline. Run under
// -race this is the concurrency-correctness gate for the serving path.
func TestConcurrentQuery(t *testing.T) {
	view, db, vbs := concurrencyFixture(t, 1200)
	for _, strat := range []Strategy{PrimitiveStrategy, DecompositionStrategy} {
		t.Run(strat.String(), func(t *testing.T) {
			var opts []Option
			opts = append(opts, WithStrategy(strat))
			if strat == PrimitiveStrategy {
				opts = append(opts, WithTau(8))
			}
			rep, err := Build(view, db, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := drainAll(rep, vbs)

			const goroutines = 8
			const rounds = 4
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						// Stagger start positions so goroutines hit
						// different valuations at the same instant.
						for k := range vbs {
							i := (k + g*7) % len(vbs)
							got := Drain(rep.Query(vbs[i]))
							if !reflect.DeepEqual(got, want[i]) {
								errs <- fmt.Errorf("goroutine %d: vb %v: got %v, want %v", g, vbs[i], got, want[i])
								return
							}
							if rep.Exists(vbs[i]) != (len(want[i]) > 0) {
								errs <- fmt.Errorf("goroutine %d: Exists(%v) disagrees with Query", g, vbs[i])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestBuildWorkersDeterministic checks the tentpole invariant: Build with
// one worker and with eight produces identical structures — same size
// counters, same parameters, and the same enumeration, tuple for tuple.
func TestBuildWorkersDeterministic(t *testing.T) {
	view, db, vbs := concurrencyFixture(t, 900)
	for _, strat := range []Strategy{PrimitiveStrategy, DecompositionStrategy} {
		t.Run(strat.String(), func(t *testing.T) {
			mk := func(workers int) *Representation {
				opts := []Option{WithStrategy(strat), WithWorkers(workers)}
				if strat == PrimitiveStrategy {
					opts = append(opts, WithTau(6))
				}
				rep, err := Build(view, db, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			seq := mk(1)
			par := mk(8)

			ss, ps := seq.Stats(), par.Stats()
			ss.BuildTime, ps.BuildTime = 0, 0 // wall-clock is the only legal difference
			if ss != ps {
				t.Fatalf("stats diverge across worker counts:\n  1 worker: %+v\n  8 workers: %+v", ss, ps)
			}
			for _, vb := range vbs {
				a, b := Drain(seq.Query(vb)), Drain(par.Query(vb))
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("enumeration diverges for vb %v:\n  1 worker: %v\n  8 workers: %v", vb, a, b)
				}
			}
		})
	}
}

// TestMaintainedConcurrent hammers a Maintained view with concurrent
// readers and writers: readers must always observe a consistent snapshot
// (every answer drawn from some prefix of the applied batches), and after
// Flush the final state must match a from-scratch build.
func TestMaintainedConcurrent(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	for i := 0; i < 30; i++ {
		r.MustInsert(relation.Value(i), relation.Value((i+1)%30))
	}
	db.Add(r)
	view := cq.MustParse("V[bf](x, y) :- R(x, y)")
	m, err := NewMaintained(view, db, 0.05, WithTau(1))
	if err != nil {
		t.Fatal(err)
	}

	const writers = 2
	const readers = 6
	const perWriter = 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := relation.Value(1000 + w*perWriter + i)
				if err := m.Insert("R", relation.Tuple{v, v + 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				vb := relation.Tuple{relation.Value(i % 30)}
				it, err := m.Query(vb)
				if err != nil {
					t.Error(err)
					return
				}
				// Base edges are never deleted, so every snapshot answers
				// the original requests identically.
				if got := Drain(it); len(got) != 1 || got[0][0] != relation.Value((i%30+1)%30) {
					t.Errorf("reader %d: Query(%v) = %v", g, vb, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 0 {
		t.Fatalf("pending after flush = %d", m.Pending())
	}
	// Every written edge must now be visible.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			v := relation.Value(1000 + w*perWriter + i)
			it, err := m.Query(relation.Tuple{v})
			if err != nil {
				t.Fatal(err)
			}
			if got := Drain(it); len(got) != 1 || got[0][0] != v+1 {
				t.Fatalf("lost write: Query(%v) = %v", v, got)
			}
		}
	}
	if m.Rebuilds() == 0 {
		t.Fatal("expected at least one rebuild")
	}
}

// TestServerBatch verifies the batching front end-to-end: per-request
// iterators carry exactly the tuples of a direct query, in order, under
// concurrent submission from several goroutines.
func TestServerBatch(t *testing.T) {
	view, db, vbs := concurrencyFixture(t, 900)
	rep, err := Build(view, db)
	if err != nil {
		t.Fatal(err)
	}
	want := drainAll(rep, vbs)

	srv, err := NewServer(rep, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Batch submission.
	its := submitAll(t, srv, vbs)
	for i, it := range its {
		if got := Drain(it); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("batch request %d: got %v, want %v", i, got, want[i])
		}
	}

	// Concurrent submitters sharing one server.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range vbs {
				i := (k + g*5) % len(vbs)
				it, err := srv.SubmitContext(context.Background(), vbs[i])
				if err != nil {
					t.Errorf("goroutine %d: request %d: %v", g, i, err)
					return
				}
				if got := Drain(it); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: request %d diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// submitAll submits every valuation in order and returns the per-request
// iterators in matching order.
func submitAll(t *testing.T, srv *Server, vbs []relation.Tuple) []Iterator {
	t.Helper()
	its := make([]Iterator, len(vbs))
	for i, vb := range vbs {
		it, err := srv.SubmitContext(context.Background(), vb)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		its[i] = it
	}
	return its
}

// TestServerClose checks shutdown behavior: Close is idempotent, undrained
// iterators terminate instead of hanging, and post-Close submissions fail
// with ErrClosed.
func TestServerClose(t *testing.T) {
	view, db, vbs := concurrencyFixture(t, 600)
	rep, err := Build(view, db)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rep, 2)
	if err != nil {
		t.Fatal(err)
	}
	its := submitAll(t, srv, vbs) // deliberately undrained
	srv.Close()
	srv.Close()
	for _, it := range its {
		// Must terminate (possibly after some buffered tuples).
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
	if _, err := srv.SubmitContext(context.Background(), vbs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close SubmitContext: err = %v, want ErrClosed", err)
	}
}

// TestFlushBatchEnumeration checks streams are identical for every flush
// batch size, including batches larger than the result set and a batch
// equal to the buffer, and that a batch below 1 is rejected.
func TestFlushBatchEnumeration(t *testing.T) {
	db := workload.TriangleDB(3, 40, 400)
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	rep, err := Build(view, db)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	var bindings []relation.Tuple
	for i := 0; i < r.Len() && len(bindings) < 20; i += r.Len()/20 + 1 {
		row := r.Row(i)
		bindings = append(bindings, relation.Tuple{row[0], row[1]})
	}

	collect := func(buffer int, opts ...ServerOption) [][]byte {
		t.Helper()
		srv, err := NewServer(rep, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if buffer > 0 {
			srv.buffer = buffer
		}
		var out [][]byte
		for _, it := range submitAll(t, srv, bindings) {
			var enc []byte
			for {
				tup, ok := it.Next()
				if !ok {
					break
				}
				enc = tup.AppendEncode(enc)
			}
			if err := IterErr(it); err != nil {
				t.Fatalf("IterErr: %v", err)
			}
			out = append(out, enc)
		}
		return out
	}

	want := collect(0)
	for _, n := range []int{1, 2, 7, 64, 100000} {
		got := collect(64, WithFlushBatch(n))
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("WithFlushBatch(%d): stream %d differs from default", n, i)
			}
		}
	}

	for _, n := range []int{0, -4} {
		if srv, err := NewServer(rep, 1, WithFlushBatch(n)); !errors.Is(err, ErrBadOption) {
			if srv != nil {
				srv.Close()
			}
			t.Fatalf("WithFlushBatch(%d): err = %v, want ErrBadOption", n, err)
		}
	}
}
