package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// triangleFixture is the E1 mutual-friend view over a small symmetric
// graph.
func triangleFixture(t *testing.T) (*cq.View, *relation.Database) {
	t.Helper()
	return cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), workload.TriangleDB(7, 40, 220)
}

// pathFixture is the E6 path view P4^{bfffb}.
func pathFixture(t *testing.T) (*cq.View, *relation.Database) {
	t.Helper()
	return workload.PathView(4), workload.PathDB(7, 4, 120, 16)
}

// snapEnum enumerates every bound valuation in the instance's bound
// domains cross product (small fixtures) and concatenates the answers, so
// two representations can be compared across their whole request space.
func snapEnum(t *testing.T, r *Representation) []byte {
	t.Helper()
	var buf bytes.Buffer
	var walk func(vb relation.Tuple, i int)
	walk = func(vb relation.Tuple, i int) {
		if i == len(r.BoundNames()) {
			for _, tup := range Drain(r.Query(vb.Clone())) {
				buf.Write(tup.AppendEncode(nil))
				buf.WriteByte('\n')
			}
			return
		}
		dom := r.Instance().BoundDomain(i)
		for _, v := range dom[:min(8, len(dom))] {
			walk(append(vb, v), i+1)
		}
	}
	walk(nil, 0)
	return buf.Bytes()
}

func roundTrip(t *testing.T, r *Representation) *Representation {
	t.Helper()
	var buf bytes.Buffer
	n, err := r.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadRepresentation(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadRepresentation: %v", err)
	}
	return loaded
}

func TestSnapshotRoundTripStrategies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"primitive", []Option{WithStrategy(PrimitiveStrategy), WithTau(4)}},
		// τ and α chosen by the Section-6 planner rather than given: the
		// snapshot must carry the planned parameters, not re-plan on load.
		// The budget is 8 entries per edge of the 220-edge fixture.
		{"primitive/space-budget", []Option{WithStrategy(PrimitiveStrategy), WithSpaceBudget(8 * 220)}},
		{"decomposition", []Option{WithStrategy(DecompositionStrategy)}},
		{"materialized", []Option{WithStrategy(MaterializedStrategy)}},
		{"direct", []Option{WithStrategy(DirectStrategy)}},
	} {
		t.Run("triangle/"+tc.name, func(t *testing.T) {
			view, db := triangleFixture(t)
			r, err := Build(view, db, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			loaded := roundTrip(t, r)
			want, got := snapEnum(t, r), snapEnum(t, loaded)
			if !bytes.Equal(want, got) {
				t.Fatalf("loaded enumeration differs from compiled (%d vs %d bytes)", len(want), len(got))
			}
			if loaded.Stats().Strategy != r.Stats().Strategy {
				t.Fatalf("strategy %v != %v", loaded.Stats().Strategy, r.Stats().Strategy)
			}
			if loaded.Stats().Entries != r.Stats().Entries {
				t.Fatalf("entries %d != %d", loaded.Stats().Entries, r.Stats().Entries)
			}
			if got, want := loaded.Stats(), r.Stats(); got.Tau != want.Tau || got.Alpha != want.Alpha {
				t.Fatalf("loaded (tau, alpha) = (%v, %v), compiled (%v, %v)", got.Tau, got.Alpha, want.Tau, want.Alpha)
			}
		})
	}
}

func TestSnapshotRoundTripPath(t *testing.T) {
	view, db := pathFixture(t)
	for _, strategy := range []Strategy{PrimitiveStrategy, DecompositionStrategy} {
		r, err := Build(view, db, WithStrategy(strategy), WithTau(3))
		if err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, r)
		if want, got := snapEnum(t, r), snapEnum(t, loaded); !bytes.Equal(want, got) {
			t.Fatalf("%v: loaded enumeration differs from compiled", strategy)
		}
	}
}

func TestSnapshotRoundTripAllBound(t *testing.T) {
	db := relation.NewDatabase()
	r1 := relation.NewRelation("R", 2)
	r1.MustInsert(1, 2)
	r1.MustInsert(2, 3)
	db.Add(r1)
	view := cq.MustParse("B[bb](x, y) :- R(x, y)")
	r, err := Build(view, db)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Strategy != AllBoundStrategy {
		t.Fatalf("auto picked %v", r.Stats().Strategy)
	}
	loaded := roundTrip(t, r)
	for _, tc := range []struct {
		vb   relation.Tuple
		want bool
	}{{relation.Tuple{1, 2}, true}, {relation.Tuple{2, 1}, false}} {
		if got := loaded.Exists(tc.vb); got != tc.want {
			t.Errorf("Exists(%v) = %v after load, want %v", tc.vb, got, tc.want)
		}
	}
}

// TestSnapshotDeterministicBytes locks the "identical structure, identical
// bytes" property the sorted dictionary/bucket encodings provide.
func TestSnapshotDeterministicBytes(t *testing.T) {
	view, db := triangleFixture(t)
	r, err := Build(view, db, WithStrategy(PrimitiveStrategy), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := r.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteTo calls produced different bytes")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	view, db := triangleFixture(t)
	r, err := Build(view, db, WithStrategy(PrimitiveStrategy), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[0] ^= 0xff
		_, err := ReadRepresentation(bytes.NewReader(bad))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	// Version 1 (the pre-sharding format), version 2 (the key-per-entry
	// dictionary) and version 3 (no shard card) are no longer read: their
	// frames fail typed, like any version this build does not understand.
	t.Run("version skew", func(t *testing.T) {
		for _, v := range []uint16{1, 2, 3, 43} { // 43: a version from the future
			t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
				bad := versionSkewFrame(t, snap, v)
				_, err := ReadRepresentation(bytes.NewReader(bad))
				if !errors.Is(err, ErrSnapshotVersion) {
					t.Fatalf("err = %v, want ErrSnapshotVersion", err)
				}
				if errors.Is(err, ErrBadSnapshot) {
					t.Fatal("version skew must not double as ErrBadSnapshot")
				}
			})
		}
	})
	t.Run("payload bitflip", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[snapshotHeaderLen+len(bad)/2] ^= 0x01
		_, err := ReadRepresentation(bytes.NewReader(bad))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, snapshotHeaderLen - 2, snapshotHeaderLen + 10, len(snap) - 3} {
			_, err := ReadRepresentation(bytes.NewReader(snap[:cut]))
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("cut %d: err = %v, want ErrBadSnapshot", cut, err)
			}
		}
	})
	t.Run("trailing garbage after frame", func(t *testing.T) {
		bad := append(append([]byte(nil), snap...), 0x00)
		if _, err := ReadRepresentation(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("trailing garbage inside payload is rejected", func(t *testing.T) {
		// Extend the payload by one byte, fixing length and checksum, so
		// only the structural trailing-bytes check can catch it.
		payload := append(append([]byte(nil), snap[snapshotHeaderLen:len(snap)-4]...), 0x00)
		bad := append([]byte(nil), snap[:snapshotHeaderLen]...)
		binary.BigEndian.PutUint64(bad[len(snapshotMagic)+2:], uint64(len(payload)))
		bad = append(bad, payload...)
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
		bad = append(bad, sum[:]...)
		_, err := ReadRepresentation(bytes.NewReader(bad))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrBadSnapshot", err)
		}
	})
}

// versionSkewFrame returns a frame of format version v: for versions 2
// and 3 the committed testdata/triangle_v2.cqs and triangle_v3.cqs, real
// files those encoders wrote; for any other version snap with its version
// field rewritten.
func versionSkewFrame(t *testing.T, snap []byte, v uint16) []byte {
	t.Helper()
	if v == 2 || v == 3 {
		name := fmt.Sprintf("testdata/triangle_v%d.cqs", v)
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint16(raw[len(snapshotMagic):]); got != v {
			t.Fatalf("%s is version %d", name, got)
		}
		return raw
	}
	bad := append([]byte(nil), snap...)
	binary.BigEndian.PutUint16(bad[len(snapshotMagic):], v)
	return bad
}

// scanShape is the benchmark's scan data: S(x, y) over 64 keys × 8192
// answers.
func scanShape() *relation.Database {
	const keys, perKey, stride = 64, 8192, 128
	rng := rand.New(rand.NewSource(1))
	s := relation.NewRelation("S", 2)
	for k := 0; k < keys; k++ {
		for j := 0; j < perKey; j++ {
			s.MustInsert(relation.Value(k), relation.Value(j*stride+rng.Intn(stride)))
		}
	}
	db := relation.NewDatabase()
	db.Add(s)
	return db
}

// BenchmarkReadRepresentation prices a snapshot load of the scan shape: a
// 3-shard materialized W[bf](x, y). Loading normalizes the whole view and
// each shard around the decoded buckets and builds no join instance.
func BenchmarkReadRepresentation(b *testing.B) {
	r, err := Build(cq.MustParse("W[bf](x, y) :- S(x, y)"), scanShape(), WithStrategy(MaterializedStrategy), WithShards(3))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadRepresentation(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteTo prices a representation's first snapshot write, its
// counting pass included (each iteration drops the kept payload counts),
// for a 3-shard W[bf](x, y) over the scan shape.
func BenchmarkWriteTo(b *testing.B) {
	db := scanShape()
	for _, st := range []Strategy{MaterializedStrategy, PrimitiveStrategy} {
		b.Run(st.String(), func(b *testing.B) {
			r, err := Build(cq.MustParse("W[bf](x, y) :- S(x, y)"), db, WithStrategy(st), WithShards(3))
			if err != nil {
				b.Fatal(err)
			}
			n, err := r.WriteTo(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.payloadSize.Store(0)
				for _, sub := range r.be.(*shardedBackend).subs {
					sub.payloadSize.Store(0)
				}
				if _, err := r.WriteTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
