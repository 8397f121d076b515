// Tests of the public cqrep facade. They live in package cqrep_test and
// exercise the library exactly as an out-of-tree consumer would: through
// Compile, All2, the Query iterators, and NewMaintained,
// branching on failures with errors.Is only.
package cqrep_test

import (
	"bytes"
	"context"
	"errors"
	"iter"
	"strings"
	"testing"

	"cqrep"
	"cqrep/internal/workload"
)

// encodeAll flattens an enumeration into one byte string so equivalence
// checks are literally byte-for-byte.
func encodeAll(ts []cqrep.Tuple) []byte {
	var out []byte
	for _, t := range ts {
		out = t.AppendEncode(out)
	}
	return out
}

// collect drains an All2 sequence, failing the test on an error element:
// every caller here expects a complete enumeration.
func collect(t *testing.T, seq iter.Seq2[cqrep.Tuple, error]) []cqrep.Tuple {
	t.Helper()
	var out []cqrep.Tuple
	for tup, err := range seq {
		if err != nil {
			t.Fatalf("enumeration ended with an error element after %d tuples: %v", len(out), err)
		}
		out = append(out, tup)
	}
	return out
}

// assertSeqMatchesIterator checks that the range-over-func enumeration and
// the Query iterator agree byte-for-byte on every sampled binding.
func assertSeqMatchesIterator(t *testing.T, rep *cqrep.Representation, bindings []cqrep.Tuple) {
	t.Helper()
	ctx := context.Background()
	total := 0
	for _, vb := range bindings {
		legacy := cqrep.Drain(rep.Query(vb))
		seq := collect(t, rep.All2(ctx, vb))
		if !bytes.Equal(encodeAll(legacy), encodeAll(seq)) {
			t.Fatalf("binding %v: All2 enumerated %d tuples, Iterator %d, or order differs:\nAll2:     %v\nIterator: %v",
				vb, len(seq), len(legacy), seq, legacy)
		}
		total += len(legacy)
	}
	if total == 0 {
		t.Fatal("workload produced no answers at all; the equivalence check is vacuous")
	}
}

// TestAllMatchesIteratorE1 is the E1 workload (triangle V^bfb) across the
// strategy menu.
func TestAllMatchesIteratorE1(t *testing.T) {
	db := workload.TriangleDB(7, 150, 1200)
	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	r, err := db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	var bindings []cqrep.Tuple
	for i := 0; i < r.Len() && len(bindings) < 40; i += r.Len()/40 + 1 {
		row := r.Row(i)
		bindings = append(bindings, cqrep.Tuple{row[0], row[1]})
	}
	for _, c := range []struct {
		name string
		opts []cqrep.Option
	}{
		{"auto", nil},
		{"primitive", []cqrep.Option{cqrep.WithTau(2)}},
		{"materialized", []cqrep.Option{cqrep.WithStrategy(cqrep.MaterializedStrategy)}},
		{"direct", []cqrep.Option{cqrep.WithStrategy(cqrep.DirectStrategy)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := cqrep.Compile(context.Background(), view, db, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			assertSeqMatchesIterator(t, rep, bindings)
		})
	}
}

// TestAllMatchesIteratorE6 is the E6 workload (path P_4^{bfffb}) under the
// Theorem-2 decomposition of Example 10 and the Theorem-1 primitive.
func TestAllMatchesIteratorE6(t *testing.T) {
	// Small scale: the Theorem-1 primitive on a 4-path has Θ(|D|^3)
	// preprocessing, which the race detector multiplies further.
	db := workload.PathDB(11, 4, 220, 30)
	view := workload.PathView(4)
	var bindings []cqrep.Tuple
	for a := cqrep.Value(0); a < 6; a++ {
		for b := cqrep.Value(0); b < 6; b++ {
			bindings = append(bindings, cqrep.Tuple{a, b})
		}
	}
	dec := &cqrep.Decomposition{
		Bags:   [][]int{{0, 4}, {0, 1, 3, 4}, {1, 2, 3}},
		Parent: []int{-1, 0, 1},
	}
	for _, c := range []struct {
		name string
		opts []cqrep.Option
	}{
		{"decomposition", []cqrep.Option{
			cqrep.WithStrategy(cqrep.DecompositionStrategy),
			cqrep.WithDecomposition(dec),
			cqrep.WithDelta(cqrep.UniformDelta(dec, 0.15)),
		}},
		{"primitive", []cqrep.Option{cqrep.WithStrategy(cqrep.PrimitiveStrategy), cqrep.WithTau(4)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := cqrep.Compile(context.Background(), view, db, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			assertSeqMatchesIterator(t, rep, bindings)
		})
	}
}

// TestTypedErrors walks every sentinel through errors.Is, the way an
// external consumer dispatches on failure.
func TestTypedErrors(t *testing.T) {
	ctx := context.Background()
	db := workload.TriangleDB(7, 60, 300)
	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")

	t.Run("ErrBadView/parse", func(t *testing.T) {
		if _, err := cqrep.Parse("not a view"); !errors.Is(err, cqrep.ErrBadView) {
			t.Fatalf("err = %v, want ErrBadView", err)
		}
	})
	t.Run("ErrBadView/missing-relation", func(t *testing.T) {
		v := cqrep.MustParse("V[bf](x, y) :- Missing(x, y)")
		if _, err := cqrep.Compile(ctx, v, db); !errors.Is(err, cqrep.ErrBadView) {
			t.Fatalf("err = %v, want ErrBadView", err)
		}
	})
	t.Run("ErrStrategyMismatch", func(t *testing.T) {
		_, err := cqrep.Compile(ctx, view, db, cqrep.WithStrategy(cqrep.AllBoundStrategy))
		if !errors.Is(err, cqrep.ErrStrategyMismatch) {
			t.Fatalf("err = %v, want ErrStrategyMismatch", err)
		}
	})
	t.Run("ErrUnknownStrategy", func(t *testing.T) {
		_, err := cqrep.Compile(ctx, view, db, cqrep.WithStrategy(cqrep.Strategy(99)))
		if !errors.Is(err, cqrep.ErrUnknownStrategy) {
			t.Fatalf("err = %v, want ErrUnknownStrategy", err)
		}
	})
	t.Run("ErrInfeasibleBudget", func(t *testing.T) {
		_, err := cqrep.Compile(ctx, view, db, cqrep.WithDelayBudget(0.5))
		if !errors.Is(err, cqrep.ErrInfeasibleBudget) {
			t.Fatalf("err = %v, want ErrInfeasibleBudget", err)
		}
	})
	t.Run("ErrBadOption/negative-budget", func(t *testing.T) {
		_, err := cqrep.Compile(ctx, view, db, cqrep.WithSpaceBudget(-5))
		if !errors.Is(err, cqrep.ErrBadOption) {
			t.Fatalf("err = %v, want ErrBadOption", err)
		}
	})
	t.Run("ErrBadBinding/args", func(t *testing.T) {
		rep, err := cqrep.Compile(ctx, view, db)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.QueryArgs(map[string]cqrep.Value{"nope": 1}); !errors.Is(err, cqrep.ErrBadBinding) {
			t.Fatalf("QueryArgs err = %v, want ErrBadBinding", err)
		}
		if _, err := rep.Bind(map[string]cqrep.Value{"x": 1}); !errors.Is(err, cqrep.ErrBadBinding) {
			t.Fatalf("Bind err = %v, want ErrBadBinding", err)
		}
	})
	t.Run("ErrBadBinding/all-panic", func(t *testing.T) {
		rep, err := cqrep.Compile(ctx, view, db)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, cqrep.ErrBadBinding) {
				t.Fatalf("panic = %v, want error wrapping ErrBadBinding", r)
			}
		}()
		rep.All2(ctx, cqrep.Tuple{1}) // view has two bound variables
	})
	t.Run("ErrBadBinding/maintained-all-panic", func(t *testing.T) {
		m, err := cqrep.NewMaintained(ctx, view, db, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, cqrep.ErrBadBinding) {
				t.Fatalf("panic = %v, want error wrapping ErrBadBinding", r)
			}
		}()
		m.All2(ctx, cqrep.Tuple{1, 2, 3}) // view has two bound variables
	})
}

// TestMaintainedFacade drives the update path end to end through the
// public API: buffered inserts, a flush, and queries over the fresh
// snapshot (including a direct query over Snapshot()).
func TestMaintainedFacade(t *testing.T) {
	ctx := context.Background()
	db := cqrep.NewDatabase()
	r := cqrep.NewRelation("R", 2)
	for _, e := range [][2]cqrep.Value{{1, 2}, {2, 3}, {3, 1}} {
		r.MustInsert(e[0], e[1])
		r.MustInsert(e[1], e[0])
	}
	db.Add(r)
	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	m, err := cqrep.NewMaintained(ctx, view, db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	before := collect(t, m.All2(ctx, cqrep.Tuple{1, 4}))
	if len(before) != 0 {
		t.Fatalf("before insert: %v, want empty", before)
	}
	// Close the new triangle 1-4-2.
	for _, e := range [][2]cqrep.Value{{1, 4}, {4, 2}} {
		if err := m.Insert("R", cqrep.Tuple{e[0], e[1]}); err != nil {
			t.Fatal(err)
		}
		if err := m.Insert("R", cqrep.Tuple{e[1], e[0]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	after := collect(t, m.All2(ctx, cqrep.Tuple{1, 4}))
	if len(after) == 0 {
		t.Fatal("after insert+flush: triangle 1-?-4 still missing")
	}
	if got := cqrep.Drain(m.Snapshot().Query(cqrep.Tuple{1, 4})); !bytes.Equal(encodeAll(got), encodeAll(after)) {
		t.Fatalf("query over snapshot served %v, want %v", got, after)
	}
}

// TestExperimentFacade smoke-runs the public experiment runner that
// cmd/cqbench stands on.
func TestExperimentFacade(t *testing.T) {
	// E17, E19 and E20 are retired (the repository benchmark carries their
	// claims); their ids stay unused so E18 and E21 keep their names.
	var ids []string
	for _, e := range cqrep.Experiments() {
		ids = append(ids, e.ID)
	}
	want := "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 E18 E21"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("Experiments() lists %s, want %s", got, want)
	}
	tables, err := cqrep.RunExperiment("e8", cqrep.ExperimentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || tables[0].String() == "" {
		t.Fatal("E8 produced no tables")
	}
	for _, id := range []string{"E99", "E17", "E19", "E20"} {
		_, err := cqrep.RunExperiment(id, cqrep.ExperimentConfig{})
		if err == nil {
			t.Fatalf("RunExperiment(%s) must fail", id)
		}
		if !strings.Contains(err.Error(), strings.ReplaceAll(want, " ", ", ")) {
			t.Fatalf("RunExperiment(%s): error %q does not list the registered ids", id, err)
		}
	}
}
