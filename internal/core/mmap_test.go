package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cqrep/internal/relation"
)

// saveSnapshot writes r's snapshot frame to a fresh file under t.TempDir.
func saveSnapshot(t *testing.T, r *Representation) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rep.cqs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteTo(f); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMmapLoadIdentity checks an mmap-loaded representation answers
// byte-for-byte identically to the compiled one for every snapshot-capable
// strategy, and that materialization restores the stored statistics.
func TestMmapLoadIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"primitive", []Option{WithStrategy(PrimitiveStrategy), WithTau(4)}},
		{"decomposition", []Option{WithStrategy(DecompositionStrategy)}},
		{"materialized", []Option{WithStrategy(MaterializedStrategy)}},
		{"direct", []Option{WithStrategy(DirectStrategy)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view, db := triangleFixture(t)
			r, err := Build(view, db, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			path := saveSnapshot(t, r)
			m, err := OpenRepresentationMmap(path)
			if err != nil {
				t.Fatalf("OpenRepresentationMmap: %v", err)
			}
			if m.View().Name != r.View().Name {
				t.Fatalf("View().Name = %q before materialization, want %q", m.View().Name, r.View().Name)
			}
			if want, got := snapEnum(t, r), snapEnum(t, m); !bytes.Equal(want, got) {
				t.Fatalf("mmap enumeration differs from compiled (%d vs %d bytes)", len(want), len(got))
			}
			if m.Stats().Strategy != r.Stats().Strategy {
				t.Fatalf("strategy %v != %v", m.Stats().Strategy, r.Stats().Strategy)
			}
			if m.Stats().Entries != r.Stats().Entries {
				t.Fatalf("entries %d != %d", m.Stats().Entries, r.Stats().Entries)
			}
			if m.Stats().BuildTime != r.Stats().BuildTime {
				t.Fatalf("BuildTime %v != %v", m.Stats().BuildTime, r.Stats().BuildTime)
			}
			// Re-encoding a materialized mmap load reproduces the file.
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := m.WriteTo(&buf); err != nil {
				t.Fatalf("re-save: %v", err)
			}
			if !bytes.Equal(orig, buf.Bytes()) {
				t.Fatal("re-saved mmap load differs from the original snapshot bytes")
			}
		})
	}
}

// TestMmapLoadSharded checks the per-shard laziness of the sharded composite
// payload: a bound-key access request materializes exactly the owning
// shard, and full merge enumeration matches the eager load byte for byte.
func TestMmapLoadSharded(t *testing.T) {
	view, db := triangleFixture(t)
	r, err := Build(view, db, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	path := saveSnapshot(t, r)
	m, err := OpenRepresentationMmap(path)
	if err != nil {
		t.Fatalf("OpenRepresentationMmap: %v", err)
	}
	if m.lazy == nil || m.sh != nil {
		t.Fatal("open must not materialize the composite")
	}

	// One bound-key request: the composite's routing metadata and exactly
	// one shard materialize.
	vb := sampleBindings(r, 1, 1)[0]
	if want, got := enumBytes(r, vb), enumBytes(m, vb); !bytes.Equal(want, got) {
		t.Fatalf("mmap bound-key enumeration differs for %v", vb)
	}
	sb, ok := m.be.(*shardedBackend)
	if !ok {
		t.Fatalf("composite backend is %T", m.be)
	}
	materialized := 0
	for _, sub := range sb.subs {
		if sub.sh != nil {
			materialized++
		}
	}
	if materialized != 1 {
		t.Fatalf("%d shards materialized after one bound-key request, want 1", materialized)
	}

	// Full identity across the request space (materializes everything).
	if want, got := snapEnum(t, r), snapEnum(t, m); !bytes.Equal(want, got) {
		t.Fatal("mmap sharded enumeration differs from compiled")
	}
	if m.Stats().Shards != 4 {
		t.Fatalf("Stats().Shards = %d, want 4", m.Stats().Shards)
	}
}

// TestMmapRejectsCorruption pins the mmap error contract: header-level
// damage fails at open with the usual typed errors, payload-level damage
// surfaces at first touch through the no-error access surfaces.
func TestMmapRejectsCorruption(t *testing.T) {
	view, db := triangleFixture(t)
	r, err := Build(view, db, WithStrategy(PrimitiveStrategy), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	path := saveSnapshot(t, r)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(t *testing.T, b []byte) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.cqs")
		if err := os.WriteFile(p, b, 0o666); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[0] ^= 0xff
		if _, err := OpenRepresentationMmap(write(t, bad)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		for _, v := range []uint16{1, 2, 3, 43} { // 43: a version from the future
			t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
				bad := versionSkewFrame(t, snap, v)
				if _, err := OpenRepresentationMmap(write(t, bad)); !errors.Is(err, ErrSnapshotVersion) {
					t.Fatalf("err = %v, want ErrSnapshotVersion", err)
				}
			})
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := OpenRepresentationMmap(write(t, snap[:len(snap)-3])); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := OpenRepresentationMmap(write(t, append(append([]byte(nil), snap...), 0x00))); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("payload bitflip surfaces at first touch", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[snapshotHeaderLen+len(bad)/2] ^= 0x01
		m, err := OpenRepresentationMmap(write(t, bad))
		if err != nil {
			t.Fatalf("open must defer payload verification, got %v", err)
		}
		vb := sampleBindings(r, 1, 1)[0]
		it := m.Query(vb)
		if _, ok := it.Next(); ok {
			t.Fatal("corrupt mmap load yielded a tuple")
		}
		if err := IterErr(it); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("IterErr = %v, want ErrBadSnapshot", err)
		}
		if _, err := m.Bind(map[string]relation.Value{}); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("Bind err = %v, want ErrBadSnapshot", err)
		}
		if m.Exists(vb) {
			t.Fatal("corrupt mmap load claims existence")
		}
	})
	t.Run("sharded shard-frame bitflip surfaces on routed request", func(t *testing.T) {
		sharded, err := Build(view, db, WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		spath := saveSnapshot(t, sharded)
		ssnap, err := os.ReadFile(spath)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte deep in the second half of the file: inside some
		// shard's nested frame, past the composite prefix.
		bad := append([]byte(nil), ssnap...)
		bad[3*len(bad)/4] ^= 0x01
		m, err := OpenRepresentationMmap(write(t, bad))
		if err != nil {
			t.Fatalf("open must defer shard verification, got %v", err)
		}
		// Some bound-key request routes to the damaged shard; merge
		// enumeration (free shard key needs none here, so drive every
		// binding) must surface ErrBadSnapshot on at least one stream.
		var hit bool
		for _, vb := range sampleBindings(sharded, 50, 1) {
			it := m.Query(vb)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			if err := IterErr(it); errors.Is(err, ErrBadSnapshot) {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatal("no routed request surfaced the damaged shard frame")
		}
	})
	t.Run("sharded prefix bitflip surfaces at first touch", func(t *testing.T) {
		sharded, err := Build(view, db, WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		ssnap, err := os.ReadFile(saveSnapshot(t, sharded))
		if err != nil {
			t.Fatal(err)
		}
		// Flip the low bit of the last base-relation value in the
		// composite's prefix: the payload still decodes, so only the outer
		// checksum can tell.
		payload := ssnap[snapshotHeaderLen : len(ssnap)-4]
		d := relation.NewDecoder(payload)
		if _, err := decodeView(d); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Database(); err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), ssnap...)
		bad[snapshotHeaderLen+len(payload)-d.Remaining()-1] ^= 0x01
		m, err := OpenRepresentationMmap(write(t, bad))
		if err != nil {
			t.Fatalf("open must defer payload verification, got %v", err)
		}
		it := m.Query(sampleBindings(sharded, 1, 1)[0])
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		if err := IterErr(it); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("IterErr = %v, want ErrBadSnapshot", err)
		}
		if m.Database() != nil {
			t.Fatal("corrupt composite exposes its base relations")
		}
	})
}
