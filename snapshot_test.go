// Snapshot persistence tests of the public facade: Save → Load → All2 must
// be byte-identical to the in-memory representation across strategies and
// workloads, and damaged files must fail with the typed sentinel errors.
package cqrep_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cqrep"
	"cqrep/internal/workload"
)

// snapshotFixtures returns the two acceptance workloads: the E1 triangle
// view and the E6 path view P4^{bfffb}.
func snapshotFixtures(seed int64) []struct {
	name string
	view *cqrep.View
	db   *cqrep.Database
} {
	return []struct {
		name string
		view *cqrep.View
		db   *cqrep.Database
	}{
		{"E1-triangle",
			cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
			workload.TriangleDB(seed, 35, 200)},
		{"E6-path",
			workload.PathView(4),
			workload.PathDB(seed, 4, 90, 14)},
	}
}

// sampleBindings draws valuations over the view's bound variables from the
// union of plausible and random values, so both empty and non-empty
// requests are exercised.
func sampleBindings(rng *rand.Rand, rep *cqrep.Representation, n int) []cqrep.Tuple {
	arity := len(rep.BoundNames())
	out := make([]cqrep.Tuple, n)
	for i := range out {
		vb := make(cqrep.Tuple, arity)
		for j := range vb {
			vb[j] = cqrep.Value(rng.Intn(40))
		}
		out[i] = vb
	}
	return out
}

// enumBytes renders the full enumeration of every binding as one byte
// string, preserving order.
func enumBytes(t *testing.T, rep *cqrep.Representation, vbs []cqrep.Tuple) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, vb := range vbs {
		for _, tup := range collect(t, rep.All2(context.Background(), vb)) {
			buf.Write(tup.AppendEncode(nil))
			buf.WriteByte(';')
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestSnapshotSaveLoadProperty is the round-trip property test: for every
// strategy and both acceptance workloads, over several seeds, a loaded
// snapshot enumerates byte-for-byte identically to the representation it
// was saved from.
func TestSnapshotSaveLoadProperty(t *testing.T) {
	strategies := []struct {
		name string
		opts []cqrep.Option
	}{
		{"primitive", []cqrep.Option{cqrep.WithStrategy(cqrep.PrimitiveStrategy), cqrep.WithTau(5)}},
		{"decomposition", []cqrep.Option{cqrep.WithStrategy(cqrep.DecompositionStrategy)}},
		{"materialized", []cqrep.Option{cqrep.WithStrategy(cqrep.MaterializedStrategy)}},
		{"direct", []cqrep.Option{cqrep.WithStrategy(cqrep.DirectStrategy)}},
		{"auto", nil},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, fx := range snapshotFixtures(seed) {
			for _, st := range strategies {
				t.Run(fx.name+"/"+st.name, func(t *testing.T) {
					rep, err := cqrep.Compile(context.Background(), fx.view, fx.db, st.opts...)
					if err != nil {
						t.Fatal(err)
					}
					path := filepath.Join(t.TempDir(), "rep.cqs")
					if err := rep.Save(path); err != nil {
						t.Fatal(err)
					}
					loaded, err := cqrep.Load(path)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed * 31))
					vbs := sampleBindings(rng, rep, 30)
					want := enumBytes(t, rep, vbs)
					got := enumBytes(t, loaded, vbs)
					if !bytes.Equal(want, got) {
						t.Fatalf("loaded enumeration differs from in-memory representation (%d vs %d bytes)", len(want), len(got))
					}
					if rep.Stats().Strategy != loaded.Stats().Strategy {
						t.Fatalf("strategy drifted: %v -> %v", rep.Stats().Strategy, loaded.Stats().Strategy)
					}
					// The Query iterator and the All2 sequence agree on the
					// loaded representation too.
					for _, vb := range vbs[:5] {
						legacy := cqrep.Drain(loaded.Query(vb))
						seq := collect(t, loaded.All2(context.Background(), vb))
						if len(legacy) != len(seq) {
							t.Fatalf("Query/All2 disagree after load: %d vs %d tuples", len(legacy), len(seq))
						}
					}
				})
			}
		}
	}
}

// TestSnapshotLoadMmap checks the mmap load path through the public
// facade: identical enumeration across strategies and sharding, and the
// deferred error contract for payload-level corruption.
func TestSnapshotLoadMmap(t *testing.T) {
	ctx := context.Background()
	fx := snapshotFixtures(2)[0]
	for _, st := range []struct {
		name string
		opts []cqrep.Option
	}{
		{"auto", nil},
		{"primitive", []cqrep.Option{cqrep.WithStrategy(cqrep.PrimitiveStrategy), cqrep.WithTau(5)}},
		{"sharded", []cqrep.Option{cqrep.WithShards(3)}},
	} {
		t.Run(st.name, func(t *testing.T) {
			rep, err := cqrep.Compile(ctx, fx.view, fx.db, st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "rep.cqs")
			if err := rep.Save(path); err != nil {
				t.Fatal(err)
			}
			mapped, err := cqrep.LoadMmap(path)
			if err != nil {
				t.Fatalf("LoadMmap: %v", err)
			}
			rng := rand.New(rand.NewSource(7))
			vbs := sampleBindings(rng, rep, 30)
			if want, got := enumBytes(t, rep, vbs), enumBytes(t, mapped, vbs); !bytes.Equal(want, got) {
				t.Fatalf("mmap enumeration differs from in-memory representation (%d vs %d bytes)", len(want), len(got))
			}
			if rep.Stats().Strategy != mapped.Stats().Strategy {
				t.Fatalf("strategy drifted: %v -> %v", rep.Stats().Strategy, mapped.Stats().Strategy)
			}
		})
	}

	t.Run("payload corruption surfaces at first touch", func(t *testing.T) {
		rep, err := cqrep.Compile(ctx, fx.view, fx.db)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "rep.cqs")
		if err := rep.Save(path); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap[len(snap)/2] ^= 0x01
		if err := os.WriteFile(path, snap, 0o666); err != nil {
			t.Fatal(err)
		}
		mapped, err := cqrep.LoadMmap(path)
		if err != nil {
			t.Fatalf("LoadMmap must defer payload verification, got %v", err)
		}
		it := mapped.Query(cqrep.Tuple{1, 2})
		if _, ok := it.Next(); ok {
			t.Fatal("corrupt mmap load yielded a tuple")
		}
		if err := cqrep.IterErr(it); !errors.Is(err, cqrep.ErrBadSnapshot) {
			t.Fatalf("IterErr = %v, want ErrBadSnapshot", err)
		}
		// All2 surfaces the same failure as its error element, not as an
		// empty range.
		var elems int
		for tup, err := range mapped.All2(ctx, cqrep.Tuple{1, 2}) {
			elems++
			if tup != nil || !errors.Is(err, cqrep.ErrBadSnapshot) {
				t.Fatalf("All2 element (%v, %v), want (nil, ErrBadSnapshot)", tup, err)
			}
		}
		if elems != 1 {
			t.Fatalf("All2 yielded %d elements over a corrupt payload, want exactly one error element", elems)
		}
	})
}

// TestSnapshotFileErrors drives the typed failure modes through the
// file-level API: corruption, truncation, version skew, and non-snapshot
// input all surface as errors.Is-matchable sentinels.
func TestSnapshotFileErrors(t *testing.T) {
	fx := snapshotFixtures(1)[0]
	rep, err := cqrep.Compile(context.Background(), fx.view, fx.db, cqrep.WithStrategy(cqrep.PrimitiveStrategy), cqrep.WithTau(5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "rep.cqs")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, name string, alter func([]byte) []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, alter(append([]byte(nil), snap...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("not a snapshot", func(t *testing.T) {
		p := mutate(t, "garbage.cqs", func(b []byte) []byte { return []byte("not a snapshot at all") })
		if _, err := cqrep.Load(p); !errors.Is(err, cqrep.ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("corrupt payload", func(t *testing.T) {
		p := mutate(t, "corrupt.cqs", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
		if _, err := cqrep.Load(p); !errors.Is(err, cqrep.ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, frac := range []int{4, 2} {
			p := mutate(t, "trunc.cqs", func(b []byte) []byte { return b[:len(b)/frac] })
			if _, err := cqrep.Load(p); !errors.Is(err, cqrep.ErrBadSnapshot) {
				t.Fatalf("truncation to 1/%d: err = %v, want ErrBadSnapshot", frac, err)
			}
		}
	})
	t.Run("trailing garbage after frame", func(t *testing.T) {
		p := mutate(t, "trailing.cqs", func(b []byte) []byte { return append(b, 0x00) })
		if _, err := cqrep.Load(p); !errors.Is(err, cqrep.ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		p := mutate(t, "future.cqs", func(b []byte) []byte {
			// The version field sits right after the 6 magic bytes.
			b[6], b[7] = 0xff, 0xfe
			return b
		})
		_, err := cqrep.Load(p)
		if !errors.Is(err, cqrep.ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
		if errors.Is(err, cqrep.ErrBadSnapshot) {
			t.Fatal("version skew must be distinguishable from corruption")
		}
	})
	t.Run("missing file", func(t *testing.T) {
		if _, err := cqrep.Load(filepath.Join(dir, "absent.cqs")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want os.ErrNotExist", err)
		}
	})

	// A failed Save must leave no partial file behind.
	t.Run("save leaves no partial file", func(t *testing.T) {
		sub := filepath.Join(dir, "nodir")
		if err := rep.Save(filepath.Join(sub, "rep.cqs")); err == nil {
			t.Fatal("Save into a missing directory must fail")
		}
		if entries, err := os.ReadDir(dir); err == nil {
			for _, e := range entries {
				if len(e.Name()) > 4 && e.Name()[0] == '.' {
					t.Fatalf("temp file %s left behind", e.Name())
				}
			}
		}
	})
}

// TestSnapshotMaintainedHandoff covers the intended production flow: a
// Maintained view's current snapshot is saved, a fresh process loads it,
// and the loaded representation serves the same answers the snapshot did.
func TestSnapshotMaintainedHandoff(t *testing.T) {
	fx := snapshotFixtures(2)[0]
	m, err := cqrep.NewMaintained(context.Background(), fx.view, fx.db, 0.5, cqrep.WithStrategy(cqrep.DirectStrategy))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("R", cqrep.Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	path := filepath.Join(t.TempDir(), "maintained.cqs")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := cqrep.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	vbs := sampleBindings(rand.New(rand.NewSource(9)), snap, 20)
	if want, got := enumBytes(t, snap, vbs), enumBytes(t, loaded, vbs); !bytes.Equal(want, got) {
		t.Fatal("loaded Maintained snapshot enumerates differently")
	}
}
