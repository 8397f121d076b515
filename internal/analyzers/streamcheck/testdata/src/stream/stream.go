// Package stream is streamcheck's testdata: each function is one flag or
// no-flag case for the consult-or-escape rule over core.Iterator,
// core.BlockIterator, core.RowIterator, httpserve.Stream and the All2
// sequence form.
package stream

import (
	"context"
	"iter"

	"cqrep/internal/core"
	"cqrep/internal/httpserve"
)

func openIter() core.Iterator               { return nil }
func openStream() (httpserve.Stream, error) { return nil, nil }
func openBlocks() core.BlockIterator        { return nil }
func openRows() core.RowIterator            { return nil }

func drain(it core.Iterator) {
	for {
		if _, ok := it.Next(); !ok {
			return
		}
	}
}

// --- core.Iterator: flag cases -------------------------------------------

func iterNeverConsulted() int {
	n := 0
	it := openIter() // want `never consulted for its terminal error`
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	return n
}

func iterDiscarded() {
	openIter() // want `result stream discarded`
}

func iterBlank() {
	_ = openIter() // want `assigned to _`
}

func iterInlineDrain() {
	core.Drain(openIter()) // want `drained inline via Drain`
}

// --- core.Iterator: no-flag cases ----------------------------------------

func iterConsulted() error {
	it := openIter()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	return core.IterErr(it)
}

func iterDrainThenConsult() ([]int, error) {
	it := openIter()
	_ = core.Drain(it) // Drain is neutral: the obligation stays on it
	return nil, core.IterErr(it)
}

// iterDeferredConsult checks the deferred-consult idiom: the IterErr call
// sits in a deferred closure, which still counts. The drain loop is
// inlined so the consult is the only thing keeping this case quiet.
func iterDeferredConsult() (err error) {
	it := openIter()
	defer func() {
		if err == nil {
			err = core.IterErr(it)
		}
	}()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	return nil
}

func iterEscapesByReturn() core.Iterator {
	return openIter() // the caller inherits the obligation
}

func iterEscapesAsArg() {
	drain(openIter()) // handed to a non-Drain callee: escape
}

func iterErrMethod() error {
	s, err := openStream()
	if err != nil {
		return err
	}
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	return s.Err()
}

func streamNeverConsulted() int {
	n := 0
	s, err := openStream() // want `never consulted for its terminal error`
	if err != nil {
		return 0
	}
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	return n
}

// --- core.BlockIterator: same rule, block-sized steps ----------------------

func blocksNeverConsulted() int {
	n := 0
	blocks := openBlocks() // want `never consulted for its terminal error`
	for {
		blk := blocks.NextBlock(128)
		if len(blk) == 0 {
			break
		}
		n += len(blk)
	}
	return n
}

func blocksConsulted() (int, error) {
	n := 0
	blocks := openBlocks()
	for {
		blk := blocks.NextBlock(128)
		if len(blk) == 0 {
			break
		}
		n += len(blk)
	}
	return n, core.IterErr(blocks)
}

// --- core.RowIterator: same rule, encoded runs ---------------------------

func rowsNeverConsulted() int {
	n := 0
	rows := openRows() // want `never consulted for its terminal error`
	for run := rows.NextRows(128); run.N > 0; run = rows.NextRows(128) {
		n += run.N
	}
	return n
}

func rowsConsulted() (int, error) {
	n := 0
	rows := openRows()
	for run := rows.NextRows(128); run.N > 0; run = rows.NextRows(128) {
		n += run.N
	}
	return n, core.IterErr(rows)
}

// --- All2-shaped sequences (the error element must be consumed) -----------

type rep struct{}

func (rep) All2(ctx context.Context, b int) iter.Seq2[int, error] {
	_ = ctx
	return func(yield func(int, error) bool) {}
}

func rangeAll2OneVar(ctx context.Context, r rep) int {
	n := 0
	for range r.All2(ctx, 0) { // want `drops its terminal error`
		n++
	}
	return n
}

func rangeAll2BlankErr(ctx context.Context, r rep) int {
	n := 0
	for t, _ := range r.All2(ctx, 0) { // want `blank error variable`
		n += t
	}
	return n
}

func rangeAll2Handled(ctx context.Context, r rep) (int, error) {
	n := 0
	for t, err := range r.All2(ctx, 0) {
		if err != nil {
			return n, err
		}
		n += t
	}
	return n, nil
}
