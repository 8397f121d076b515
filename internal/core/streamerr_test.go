package core

import (
	"context"
	"errors"
	"testing"

	"cqrep/internal/relation"
)

// streamerr_test.go pins the terminal-error contract of Server result
// streams: a stream that stops yielding tuples must say why — complete,
// cancelled, server closed, or the underlying source failed mid-stream —
// instead of silently ending (the historical behavior made a truncated
// enumeration indistinguishable from a finished one).

// failSource is a QuerySource whose enumeration yields n tuples and then
// fails with err — the shape of a snapshot-backed source whose backing
// store breaks mid-stream.
type failSource struct {
	n   int
	err error
}

type failIter struct {
	i, n int
	err  error
}

func (s *failSource) Query(vb relation.Tuple) Iterator {
	return &failIter{n: s.n, err: s.err}
}

func (it *failIter) Next() (relation.Tuple, bool) {
	if it.i >= it.n {
		return nil, false
	}
	it.i++
	return relation.Tuple{relation.Value(it.i)}, true
}

// Err implements the optional terminal-error surface a Server propagates.
func (it *failIter) Err() error {
	if it.i >= it.n {
		return it.err
	}
	return nil
}

func TestServerStreamSurfacesSourceError(t *testing.T) {
	boom := errors.New("backing store failed mid-stream")
	srv, err := NewServer(&failSource{n: 3, err: boom}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	it, err := srv.SubmitContext(context.Background(), relation.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	got := Drain(it)
	if len(got) != 3 {
		t.Fatalf("drained %d tuples, want 3", len(got))
	}
	if terr := IterErr(it); !errors.Is(terr, boom) {
		t.Fatalf("IterErr = %v, want the source's error %v", terr, boom)
	}
}

func TestServerStreamCleanEndHasNoError(t *testing.T) {
	srv, err := NewServer(&failSource{n: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	it, err := srv.SubmitContext(ctx, relation.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Drain(it); len(got) != 2 {
		t.Fatalf("drained %d tuples, want 2", len(got))
	}
	if terr := IterErr(it); terr != nil {
		t.Fatalf("IterErr after clean end = %v, want nil", terr)
	}
	// A cancellation after the stream already completed must not rewrite
	// history: the enumeration was delivered in full.
	cancel()
	if terr := IterErr(it); terr != nil {
		t.Fatalf("IterErr after post-completion cancel = %v, want nil", terr)
	}
}

func TestServerStreamCancellationError(t *testing.T) {
	srv, err := NewServer(&failSource{n: 1 << 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.buffer = 1
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	it, err := srv.SubmitContext(ctx, relation.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatal("no first tuple before cancellation")
	}
	cancel()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if terr := IterErr(it); !errors.Is(terr, context.Canceled) {
		t.Fatalf("IterErr after cancel = %v, want context.Canceled", terr)
	}
}

func TestServerStreamCloseError(t *testing.T) {
	srv, err := NewServer(&failSource{n: 1 << 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.buffer = 1
	it, err := srv.SubmitContext(context.Background(), relation.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatal("no first tuple before close")
	}
	srv.Close() // aborts the in-flight enumeration
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if terr := IterErr(it); !errors.Is(terr, ErrClosed) {
		t.Fatalf("IterErr after close = %v, want ErrClosed", terr)
	}
}

func TestServerStreamUnservedRequestReportsClosed(t *testing.T) {
	// One worker wedged on an undrained huge request; a second queued
	// request is never served before Close and must report ErrClosed, not
	// pose as an empty result.
	srv, err := NewServer(&failSource{n: 1 << 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.buffer = 1
	first, err := srv.SubmitContext(context.Background(), relation.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := first.Next(); !ok {
		t.Fatal("no first tuple")
	}
	second, err := srv.SubmitContext(context.Background(), relation.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if got := Drain(second); len(got) != 0 {
		t.Fatalf("unserved request yielded %d tuples, want 0", len(got))
	}
	if terr := IterErr(second); !errors.Is(terr, ErrClosed) {
		t.Fatalf("IterErr of unserved request = %v, want ErrClosed", terr)
	}
}

func TestIterErrNonReportingIterator(t *testing.T) {
	if terr := IterErr(&failIter{n: 0}); terr != nil {
		t.Fatalf("IterErr = %v", terr)
	}
	var plain Iterator = &SliceBackedIter{}
	if terr := IterErr(plain); terr != nil {
		t.Fatalf("IterErr on plain iterator = %v, want nil", terr)
	}
}

// SliceBackedIter is a minimal Iterator without an Err method.
type SliceBackedIter struct{ ts []relation.Tuple }

func (s *SliceBackedIter) Next() (relation.Tuple, bool) {
	if len(s.ts) == 0 {
		return nil, false
	}
	t := s.ts[0]
	s.ts = s.ts[1:]
	return t, true
}
