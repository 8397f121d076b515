// Validation and sharding tests of the consolidated public options:
// WithWorkers and WithShards must reject non-positive values with
// ErrBadOption at Compile/NewMaintained time, and WithShards
// must compile a representation that enumerates and persists exactly like
// the unsharded one.
package cqrep_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"cqrep"
	"cqrep/internal/workload"
)

// TestOptionValidation covers the ErrBadOption contract: every consuming
// constructor reports a non-positive worker or shard count through errors.Is(err, ErrBadOption), and valid minimal values
// pass.
func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	db := workload.TriangleDB(1, 20, 120)
	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")

	bad := map[string]cqrep.Option{
		"WithWorkers(0)":  cqrep.WithWorkers(0),
		"WithWorkers(-3)": cqrep.WithWorkers(-3),
		"WithShards(0)":   cqrep.WithShards(0),
		"WithShards(-1)":  cqrep.WithShards(-1),
	}
	for name, opt := range bad {
		t.Run(name+"/Compile", func(t *testing.T) {
			if _, err := cqrep.Compile(ctx, view, db, opt); !errors.Is(err, cqrep.ErrBadOption) {
				t.Fatalf("Compile err = %v, want errors.Is(_, ErrBadOption)", err)
			}
		})
		t.Run(name+"/NewMaintained", func(t *testing.T) {
			if _, err := cqrep.NewMaintained(ctx, view, db.Clone(), 0.5, opt); !errors.Is(err, cqrep.ErrBadOption) {
				t.Fatalf("NewMaintained err = %v, want errors.Is(_, ErrBadOption)", err)
			}
		})
	}

	// Later valid options must still apply; the first invalid one wins.
	if _, err := cqrep.Compile(ctx, view, db, cqrep.WithShards(0), cqrep.WithWorkers(2)); !errors.Is(err, cqrep.ErrBadOption) {
		t.Fatalf("mixed options err = %v, want ErrBadOption", err)
	}

	// Minimal valid values compile.
	rep, err := cqrep.Compile(ctx, view, db, cqrep.WithWorkers(1), cqrep.WithShards(1))
	if err != nil {
		t.Fatalf("minimal valid options: %v", err)
	}
	if rep.Stats().Shards != 1 {
		t.Fatalf("Stats().Shards = %d, want 1", rep.Stats().Shards)
	}
}

// TestWithShardsPublic exercises the sharded composite through the public
// facade: identical enumeration, Exists agreement, and a Save/Load
// round-trip of the per-shard frames.
func TestWithShardsPublic(t *testing.T) {
	ctx := context.Background()
	db := workload.TriangleDB(5, 60, 600)
	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")

	base, err := cqrep.Compile(ctx, view, db)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := cqrep.Compile(ctx, view, db, cqrep.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Stats().Shards != 4 {
		t.Fatalf("Stats().Shards = %d, want 4", sharded.Stats().Shards)
	}

	r, err := db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	var bindings []cqrep.Tuple
	for i := 0; i < r.Len() && len(bindings) < 30; i += r.Len()/30 + 1 {
		row := r.Row(i)
		bindings = append(bindings, cqrep.Tuple{row[0], row[1]})
	}
	for _, vb := range bindings {
		want := collect(t, base.All2(ctx, vb))
		got := collect(t, sharded.All2(ctx, vb))
		if !bytes.Equal(encodeAll(want), encodeAll(got)) {
			t.Fatalf("sharded enumeration differs for %v", vb)
		}
		if base.Exists(vb) != sharded.Exists(vb) {
			t.Fatalf("Exists(%v) disagrees", vb)
		}
	}

	path := filepath.Join(t.TempDir(), "sharded.cqs")
	if err := sharded.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := cqrep.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Stats().Shards != 4 {
		t.Fatalf("loaded Stats().Shards = %d, want 4", loaded.Stats().Shards)
	}
	for _, vb := range bindings {
		if !bytes.Equal(encodeAll(collect(t, sharded.All2(ctx, vb))), encodeAll(collect(t, loaded.All2(ctx, vb)))) {
			t.Fatalf("loaded sharded snapshot enumerates differently for %v", vb)
		}
	}
}

// TestMaintainedWithShards drives churn through a sharded Maintained via
// the public facade and checks the answers track a fresh compile.
func TestMaintainedWithShards(t *testing.T) {
	ctx := context.Background()
	db := workload.TriangleDB(9, 40, 400)
	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	m, err := cqrep.NewMaintained(ctx, view, db, 0, cqrep.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v := cqrep.Value(2000 + i)
		for _, e := range [][2]cqrep.Value{{v, v + 1}, {v + 1, v + 2}, {v + 2, v}} {
			if err := m.Insert("R", cqrep.Tuple{e[0], e[1]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := collect(t, m.Snapshot().All2(ctx, cqrep.Tuple{2000, 2002}))
	if len(got) != 1 {
		t.Fatalf("inserted triangle not visible through sharded Maintained: %v", got)
	}
}
