package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// shardexport_test.go verifies the per-shard snapshot export that the
// distributed serving tier ships to workers: each exported shard must load
// as an ordinary snapshot and answer exactly its slice of the composite's
// results — the routed slice for bound-key views, an EnumOrder-mergeable
// slice for free enumerations.

// exportShards writes every shard of rep through WriteShard and loads each
// back through the ordinary snapshot reader.
func exportShards(t *testing.T, rep *Representation) []*Representation {
	t.Helper()
	out := make([]*Representation, rep.ShardCount())
	for i := range out {
		var buf bytes.Buffer
		if _, err := rep.WriteShard(i, &buf); err != nil {
			t.Fatalf("WriteShard(%d): %v", i, err)
		}
		loaded, err := ReadRepresentation(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading exported shard %d: %v", i, err)
		}
		out[i] = loaded
	}
	return out
}

// TestShardExportRoutedIdentity: for a bound-key sharded view, the shard
// that relation.ShardOf says owns a binding must answer it byte-identically
// to the composite, and every other shard must answer it empty — the
// disjointness that makes single-worker routing correct.
func TestShardExportRoutedIdentity(t *testing.T) {
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	db := workload.TriangleDB(7, 40, 420)
	const shards = 3
	rep, err := Build(view, db, WithStrategy(MaterializedStrategy), WithShards(shards))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got := rep.ShardCount(); got != shards {
		t.Fatalf("ShardCount() = %d, want %d", got, shards)
	}
	keyIdx := rep.ShardKeyIndex()
	if keyIdx < 0 {
		t.Fatalf("ShardKeyIndex() = %d, want routable bound key", keyIdx)
	}
	loaded := exportShards(t, rep)
	for _, vb := range sampleBindings(rep, 40, 7) {
		owner := relation.ShardOf(vb[keyIdx], shards)
		want := enumBytes(rep, vb)
		for i, sh := range loaded {
			got := enumBytes(sh, vb)
			if i == owner {
				if !bytes.Equal(got, want) {
					t.Fatalf("shard %d (owner of %v): enumeration differs:\nwant %q\ngot  %q", i, vb, want, got)
				}
			} else if len(got) != 0 {
				t.Fatalf("shard %d answered %q for %v owned by shard %d", i, got, vb, owner)
			}
		}
	}
}

// TestShardExportMergedIdentity: for a free enumeration, merging the
// exported shards' streams under the composite's EnumOrder (ties broken by
// shard index, as the coordinator does) reproduces the composite's stream
// byte-for-byte.
func TestShardExportMergedIdentity(t *testing.T) {
	view := cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)")
	db := workload.PathDB(11, 2, 300, 20)
	const shards = 4
	rep, err := Build(view, db, WithStrategy(DecompositionStrategy), WithShards(shards))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got := rep.ShardKeyIndex(); got != -1 {
		t.Fatalf("ShardKeyIndex() = %d, want -1 for a free shard variable", got)
	}
	order := rep.EnumOrder()
	loaded := exportShards(t, rep)
	streams := make([][]relation.Tuple, len(loaded))
	for i, sh := range loaded {
		// EnumOrder must survive export: the merge is only correct when
		// every shard enumerates in the composite's declared order.
		if so := sh.EnumOrder(); len(so) != len(order) {
			t.Fatalf("shard %d EnumOrder %v != composite %v", i, so, order)
		} else {
			for j := range so {
				if so[j] != order[j] {
					t.Fatalf("shard %d EnumOrder %v != composite %v", i, so, order)
				}
			}
		}
		streams[i] = Drain(sh.Query(nil))
	}
	merged := mergeStreams(streams, order)
	var got bytes.Buffer
	for _, tu := range merged {
		got.Write(tu.AppendEncode(nil))
		got.WriteByte('|')
	}
	if want := enumBytes(rep, nil); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("merged shard streams differ from composite:\nwant %q\ngot  %q", want, got.Bytes())
	}
}

// mergeStreams k-way merges sorted per-shard streams under order, lowest
// shard index winning ties — the reference merge the coordinator mirrors.
func mergeStreams(streams [][]relation.Tuple, order []int) []relation.Tuple {
	pos := make([]int, len(streams))
	var out []relation.Tuple
	for {
		best := -1
		for i := range streams {
			if pos[i] >= len(streams[i]) {
				continue
			}
			if best < 0 || tupleLessUnder(streams[i][pos[i]], streams[best][pos[best]], order) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, streams[best][pos[best]])
		pos[best]++
	}
}

// tupleLessUnder is the strict EnumOrder comparison: order positions are
// most significant, remaining positions break ties in index order.
func tupleLessUnder(a, b relation.Tuple, order []int) bool {
	seen := make(map[int]bool, len(order))
	for _, idx := range order {
		seen[idx] = true
		if a[idx] != b[idx] {
			return a[idx] < b[idx]
		}
	}
	for i := range a {
		if !seen[i] && a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestShardExportUnsharded: an unsharded representation exports exactly one
// shard — itself — and rejects any other index.
func TestShardExportUnsharded(t *testing.T) {
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	db := workload.TriangleDB(5, 30, 300)
	rep, err := Build(view, db, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got := rep.ShardCount(); got != 1 {
		t.Fatalf("ShardCount() = %d, want 1", got)
	}
	if got := rep.ShardKeyIndex(); got != -1 {
		t.Fatalf("ShardKeyIndex() = %d, want -1", got)
	}
	var buf bytes.Buffer
	if _, err := rep.WriteShard(0, &buf); err != nil {
		t.Fatalf("WriteShard(0): %v", err)
	}
	loaded, err := ReadRepresentation(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reading exported shard 0: %v", err)
	}
	for _, vb := range sampleBindings(rep, 20, 3) {
		if !bytes.Equal(enumBytes(rep, vb), enumBytes(loaded, vb)) {
			t.Fatalf("shard-0 export of unsharded rep differs for %v", vb)
		}
	}
	if _, err := rep.WriteShard(1, &buf); err == nil {
		t.Fatalf("WriteShard(1) on unsharded rep succeeded, want error")
	}
}

// TestShardExportMmapAndEnsure: shard metadata and export work identically
// through the mmap load path, and Ensure reports the decode verdict a
// readiness probe relies on.
func TestShardExportMmapAndEnsure(t *testing.T) {
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	db := workload.TriangleDB(7, 40, 420)
	const shards = 3
	rep, err := Build(view, db, WithStrategy(MaterializedStrategy), WithShards(shards))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	path := filepath.Join(t.TempDir(), "v.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.WriteTo(f); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mm, err := OpenRepresentationMmap(path)
	if err != nil {
		t.Fatalf("OpenRepresentationMmap: %v", err)
	}
	if err := mm.Ensure(); err != nil {
		t.Fatalf("Ensure on a valid mapping: %v", err)
	}
	if got := mm.ShardCount(); got != shards {
		t.Fatalf("mmap ShardCount() = %d, want %d", got, shards)
	}
	if got, want := mm.ShardKeyIndex(), rep.ShardKeyIndex(); got != want {
		t.Fatalf("mmap ShardKeyIndex() = %d, want %d", got, want)
	}
	var direct, mapped bytes.Buffer
	if _, err := rep.WriteShard(1, &direct); err != nil {
		t.Fatal(err)
	}
	if _, err := mm.WriteShard(1, &mapped); err != nil {
		t.Fatal(err)
	}
	a, err := ReadRepresentation(bytes.NewReader(direct.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadRepresentation(bytes.NewReader(mapped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, vb := range sampleBindings(rep, 20, 11) {
		if !bytes.Equal(enumBytes(a, vb), enumBytes(b, vb)) {
			t.Fatalf("mmap-exported shard differs from direct export for %v", vb)
		}
	}
}

// routeCardShapes are the snapshots the route card tests read: sharded
// materialized (routed and scattered), Theorem-1 and Theorem-2 — the last
// with a non-head EnumOrder — and an unsharded one.
func routeCardShapes(t testing.TB) map[string][]byte {
	t.Helper()
	tri, triDB := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), workload.TriangleDB(7, 40, 420)
	path, pathDB := cq.MustParse("P(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"), workload.PathDB(11, 2, 300, 20)
	scatter := cq.MustParse("F[fff](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	out := map[string][]byte{}
	for name, c := range map[string]struct {
		view *cq.View
		db   *relation.Database
		opts []Option
	}{
		"materialized/3":  {tri, triDB, []Option{WithStrategy(MaterializedStrategy), WithShards(3)}},
		"scatter/3":       {scatter, triDB, []Option{WithStrategy(MaterializedStrategy), WithShards(3)}},
		"primitive/2":     {tri, triDB, []Option{WithStrategy(PrimitiveStrategy), WithTau(2), WithShards(2)}},
		"decomposition/4": {path, pathDB, []Option{WithStrategy(DecompositionStrategy), WithShards(4)}},
		"unsharded":       {tri, triDB, []Option{WithStrategy(MaterializedStrategy)}},
	} {
		rep, err := Build(c.view, c.db, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := rep.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestReadRouteCardMatchesDecode: the route card read from a snapshot's
// bytes says what a full decode of it says — names, strategy, shard plan,
// enumeration order, entries — and each frame range holds, byte for byte,
// what WriteShard writes for that shard of the decoded representation.
func TestReadRouteCardMatchesDecode(t *testing.T) {
	for name, raw := range routeCardShapes(t) {
		t.Run(name, func(t *testing.T) {
			card, err := ReadRouteCard(raw)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ReadRepresentation(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			entries := 0
			for _, n := range card.Entries {
				entries += n
			}
			order := rep.EnumOrder()
			if card.View.String() != rep.View().String() || !slices.Equal(card.Bound, rep.BoundNames()) ||
				!slices.Equal(card.Free, rep.FreeNames()) || card.Strategy != rep.Stats().Strategy ||
				card.Shards != rep.ShardCount() || card.KeyIndex != rep.ShardKeyIndex() ||
				(card.EnumOrder == nil) != (order == nil) || !slices.Equal(card.EnumOrder, order) ||
				entries != rep.Stats().Entries || len(card.Entries) != card.Shards || len(card.Frames) != card.Shards {
				t.Fatalf("card %+v disagrees with the decode (order %v, entries %d)", card, order, rep.Stats().Entries)
			}
			if name == "decomposition/4" && order == nil {
				t.Fatal("the decomposition must enumerate in a non-head order")
			}
			// JSON renders a nil list as null: names must be lists, as a
			// node's are.
			if card.Bound == nil || card.Free == nil {
				t.Fatal("card name lists must not be nil")
			}
			for i, fr := range card.Frames {
				var want bytes.Buffer
				if _, err := rep.WriteShard(i, &want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw[fr.Off:fr.Off+fr.Len], want.Bytes()) {
					t.Fatalf("frame %d differs from WriteShard(%d)", i, i)
				}
			}
		})
	}
}

// cardSpan locates the shard card in a sharded snapshot's payload:
// payload[start:end] is the card, decoded as c.
func cardSpan(t testing.TB, payload []byte) (start, end int, c shardCard) {
	t.Helper()
	d := relation.NewDecoder(payload)
	pre, err := decodeSnapshotPrefix(d, false)
	if err != nil || pre.shards < 2 {
		t.Fatalf("not a sharded payload: %v", err)
	}
	_ = d.String() // the shard-key variable
	start = len(payload) - d.Remaining()
	c, err = decodeShardCard(d, pre.shards, len(pre.view.ExtendToFull().FreeVars()))
	if err != nil {
		t.Fatal(err)
	}
	return start, len(payload) - d.Remaining(), c
}

// recard re-frames a sharded snapshot with its card's bytes replaced by
// edit's, under valid outer length and checksum: only the card can tell.
func recard(t testing.TB, frame []byte, edit func(card []byte, c shardCard) []byte) []byte {
	t.Helper()
	payload := stripFrame(frame)
	start, end, c := cardSpan(t, payload)
	out := append([]byte(nil), payload[:start]...)
	out = append(out, edit(payload[start:end:end], c)...)
	return framePayload(snapshotVersion, append(out, payload[end:]...))
}

// encodeCard is c's encoding.
func encodeCard(c shardCard) []byte {
	var buf bytes.Buffer
	e := relation.NewEncoder(&buf)
	c.encodeTo(e)
	return buf.Bytes()
}

// corruptCards are sharded snapshots whose card is damaged in a way any
// reader of the card — full decode, mmap, route card — must reject: a
// payload cut inside the card, an entry list one short, and enumeration
// orders that are not a permutation of the output positions.
func corruptCards(t testing.TB) map[string][]byte {
	t.Helper()
	shapes := routeCardShapes(t)
	routed, decomposed := shapes["materialized/3"], shapes["decomposition/4"]
	payload := stripFrame(routed)
	start, end, _ := cardSpan(t, payload)
	return map[string][]byte{
		"truncated card": framePayload(snapshotVersion, payload[:(start+end)/2]),
		"entry list short": recard(t, routed, func(_ []byte, c shardCard) []byte {
			c.entries = c.entries[1:]
			return encodeCard(c)
		}),
		"order repeats a position": recard(t, decomposed, func(_ []byte, c shardCard) []byte {
			c.enumOrder = slices.Clone(c.enumOrder)
			c.enumOrder[1] = c.enumOrder[0]
			return encodeCard(c)
		}),
		"order too long": recard(t, routed, func(_ []byte, c shardCard) []byte {
			c.enumOrder = []int{0, 1}
			return encodeCard(c)
		}),
	}
}

// TestCorruptShardCardRejected: every card corruption fails typed on the
// eager and mmap load paths and in ReadRouteCard, the coordinator's
// reader. A card that is well formed but lies — another valid order,
// another entry count — is caught by each load path when the shard
// decodes.
func TestCorruptShardCardRejected(t *testing.T) {
	dir := t.TempDir()
	bad := corruptCards(t)
	routed := routeCardShapes(t)["materialized/3"]
	bad["lie: entries"] = recard(t, routed, func(_ []byte, c shardCard) []byte {
		c.entries = slices.Clone(c.entries)
		c.entries[2]++
		return encodeCard(c)
	})
	bad["lie: order"] = recard(t, routed, func(_ []byte, c shardCard) []byte {
		c.enumOrder = []int{0}
		return encodeCard(c)
	})
	for name, raw := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadRepresentation(bytes.NewReader(raw)); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("eager load: err = %v, want ErrBadSnapshot", err)
			}
			if err := mmapDecode(t, dir, raw); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("mmap load: err = %v, want ErrBadSnapshot", err)
			}
			_, err := ReadRouteCard(raw)
			if strings.HasPrefix(name, "lie: ") {
				if err != nil {
					t.Errorf("ReadRouteCard of a well-formed card: %v", err)
				}
			} else if !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("ReadRouteCard: err = %v, want ErrBadSnapshot", err)
			}
		})
	}
}

// TestReadRouteCardRejectsDamage: a bad nested checksum, a bad outer one,
// a version skew, and bytes past the last frame all fail ReadRouteCard
// typed.
func TestReadRouteCardRejectsDamage(t *testing.T) {
	routed := routeCardShapes(t)["materialized/3"]
	flipped := append([]byte(nil), routed...)
	flipped[len(flipped)/2] ^= 1
	skew := append([]byte(nil), routed...)
	skew[len(snapshotMagic)+1] = 3
	for name, c := range map[string]struct {
		raw  []byte
		want error
	}{
		"nested checksum": {nestedCRCCorrupt(t), ErrBadSnapshot},
		"outer checksum":  {flipped, ErrBadSnapshot},
		"version 3":       {skew, ErrSnapshotVersion},
		"trailing bytes":  {framePayload(snapshotVersion, append(slices.Clone(stripFrame(routed)), 0)), ErrBadSnapshot},
		"empty":           {nil, ErrBadSnapshot},
	} {
		if _, err := ReadRouteCard(c.raw); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}
