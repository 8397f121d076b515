package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"cqrep/internal/cq"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// materializedLoads saves a materialized build of the triangle view,
// unsharded and sharded 3 ways, and loads each back eagerly and through
// mmap. The fresh builds come first in the result: they are the reference
// (and build their instances, as builds do).
func materializedLoads(t *testing.T) (ref *Representation, loads map[string]*Representation) {
	t.Helper()
	view, db := triangleFixture(t)
	loads = map[string]*Representation{}
	for _, shards := range []int{1, 3} {
		rep, err := Build(view, db, WithStrategy(MaterializedStrategy), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			ref = rep
		}
		path := saveSnapshot(t, rep)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		eager, err := ReadRepresentation(f)
		f.Close()
		if err != nil {
			t.Fatalf("ReadRepresentation: %v", err)
		}
		mapped, err := OpenRepresentationMmap(path)
		if err != nil {
			t.Fatalf("OpenRepresentationMmap: %v", err)
		}
		name := "unsharded"
		if shards > 1 {
			name = "sharded"
		}
		loads[name+"/eager"], loads[name+"/mmap"] = eager, mapped
	}
	return ref, loads
}

// TestMaterializedLoadBuildsNoInstance: a materialized output reads only
// its buckets, so no load path (eager, sharded, mmap) and no serving call
// builds the join instance — every request drained per tuple and per
// block, membership, projection, metadata, re-encoding and shard export.
func TestMaterializedLoadBuildsNoInstance(t *testing.T) {
	ref, loads := materializedLoads(t)
	inst := ref.Instance()
	var vbs []relation.Tuple
	for _, x := range inst.BoundDomain(0) {
		for _, z := range inst.BoundDomain(1) {
			vbs = append(vbs, relation.Tuple{x, z})
		}
	}
	vbs = append(vbs, relation.Tuple{-1, -1})
	for name, rep := range loads {
		for _, vb := range vbs {
			if got, want := enumBytes(rep, vb), enumBytes(ref, vb); !bytes.Equal(got, want) {
				t.Fatalf("%s: request %v answers differently from the build", name, vb)
			}
			encodeBlockStream(t, rep, vb, 3)
			rep.Exists(vb)
			Drain(rep.QueryDistinct(vb))
		}
		rep.Stats()
		rep.EnumOrder()
		rep.BoundNames()
		rep.FreeNames()
		rep.Normalized()
		rep.Database()
		rep.ShardKeyIndex()
		for i := 0; i < rep.ShardCount(); i++ {
			if _, err := rep.WriteShard(i, &bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
		}
		snapshotBytes(t, rep)
		if InstanceBuiltForTest(rep) {
			t.Errorf("%s: serving a materialized snapshot built the join instance", name)
		}
		// The probe is honest: asking for the instance builds it.
		if rep.Instance() == nil || !InstanceBuiltForTest(rep) {
			t.Errorf("%s: Instance() did not build the join instance", name)
		}
	}
}

// TestInstanceBuiltOnceConcurrently: concurrent first callers of Instance
// on a loaded materialized view block on the one build and all get the
// same pointer. Run it under -race.
func TestInstanceBuiltOnceConcurrently(t *testing.T) {
	_, loads := materializedLoads(t)
	rep := loads["unsharded/eager"]
	if InstanceBuiltForTest(rep) {
		t.Fatal("load built the instance")
	}
	const callers = 8
	got := make([]*join.Instance, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = rep.Instance()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, inst := range got {
		if inst == nil || inst != got[0] {
			t.Fatalf("caller %d got instance %p, caller 0 got %p", i, inst, got[0])
		}
	}
}

// TestInstanceBuiltWhereServingReadsIt: every build, and every load whose
// queries read the join instance — primitive, decomposition, direct,
// all-bound — has it built when it returns, so no request pays for it;
// those whose queries read FreeFirst or a domain have those built too.
// A materialized load and the sharded composite's outer shell never
// build it.
func TestInstanceBuiltWhereServingReadsIt(t *testing.T) {
	view, db := triangleFixture(t)
	boolean := cq.MustParse("V[bbb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	for _, tc := range []struct {
		name    string
		view    *cq.View
		opts    []Option
		onLoad  bool // the loaded representation builds the instance
		sharded bool
		// complete: requests read FreeFirst or the domains, so every
		// build and load has them built.
		complete bool
	}{
		{"primitive", view, []Option{WithStrategy(PrimitiveStrategy), WithTau(2)}, true, false, true},
		{"decomposition", view, []Option{WithStrategy(DecompositionStrategy)}, true, false, false},
		{"direct", view, []Option{WithStrategy(DirectStrategy)}, true, false, true},
		{"allbound", boolean, []Option{WithStrategy(AllBoundStrategy)}, true, false, false},
		{"materialized", view, []Option{WithStrategy(MaterializedStrategy)}, false, false, false},
		{"primitive/sharded", view, []Option{WithStrategy(PrimitiveStrategy), WithTau(2), WithShards(2)}, true, true, true},
		{"materialized/sharded", view, []Option{WithStrategy(MaterializedStrategy), WithShards(2)}, false, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, err := Build(tc.view, db, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := built.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadRepresentation(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				rep  *Representation
				want bool
			}{{"build", built, true}, {"load", loaded, tc.onLoad}} {
				leaves := []*Representation{c.rep}
				if sb, ok := c.rep.be.(*shardedBackend); ok {
					if c.rep.sh.inst.Load() != nil {
						t.Errorf("%s: the sharded composite's outer shell built an instance", c.name)
					}
					leaves = sb.subs
				} else if tc.sharded {
					t.Fatalf("%s: backend is %T, want the sharded composite", c.name, c.rep.be)
				}
				for i, leaf := range leaves {
					inst := leaf.sh.inst.Load()
					if got := inst != nil; got != c.want {
						t.Errorf("%s: shard %d has instance built = %v, want %v", c.name, i, got, c.want)
					}
					if tc.complete && (inst == nil || !join.LazyBuiltForTest(inst)) {
						t.Errorf("%s: shard %d serves from an instance whose FreeFirst and domains wait for a request", c.name, i)
					}
				}
			}
		})
	}
}

// TestCoveringMaterializedBuildSortsNoFreeFirst: a materialized build
// over a covering atom walks its BoundFirst runs and enumerates through
// BoundFirst, so neither it nor any shard of a sharded one builds a
// FreeFirst index or an active domain.
func TestCoveringMaterializedBuildSortsNoFreeFirst(t *testing.T) {
	view, db := triangleFixture(t)
	r, err := db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	scanDB := relation.NewDatabase()
	scanDB.Add(r.Renamed("S"))
	for _, tc := range []struct {
		view *cq.View
		db   *relation.Database
	}{
		{cq.MustParse("W[bf](x, y) :- S(x, y)"), scanDB},
		{cq.MustParse("F[ff](x, y) :- S(x, y)"), scanDB},
		{view, db},
	} {
		for _, shards := range []int{1, 3} {
			rep, err := Build(tc.view, tc.db, WithStrategy(MaterializedStrategy), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			leaves := []*Representation{rep}
			if sb, ok := rep.be.(*shardedBackend); ok {
				leaves = sb.subs
			}
			for i, leaf := range leaves {
				inst := leaf.sh.inst.Load()
				if inst == nil {
					t.Fatalf("%s, %d shards: shard %d built no instance", tc.view, shards, i)
				}
				if join.LazyBuiltForTest(inst) {
					t.Errorf("%s, %d shards: shard %d built a FreeFirst index or a domain", tc.view, shards, i)
				}
			}
		}
	}
}

// nestedCRCCorrupt is a valid sharded materialized snapshot frame whose
// first nested shard frame has one bit of its checksum flipped; the outer
// frame is re-checksummed, so only the nested check can catch it.
func nestedCRCCorrupt(t testing.TB) []byte {
	t.Helper()
	s := relation.NewRelation("S", 2)
	for x := relation.Value(0); x < 6; x++ {
		s.MustInsert(x, 10+x)
		s.MustInsert(x, 20+x)
	}
	db := relation.NewDatabase()
	db.Add(s)
	rep, err := Build(cq.MustParse("W[bf](x, y) :- S(x, y)"), db, WithStrategy(MaterializedStrategy), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), stripFrame(buf.Bytes())...)
	start := bytes.Index(payload, []byte(snapshotMagic))
	if start < 0 {
		t.Fatal("no nested frame in the sharded payload")
	}
	inner, _, err := splitFrame(payload[start:])
	if err != nil {
		t.Fatal(err)
	}
	payload[start+snapshotHeaderLen+len(inner)] ^= 1
	return framePayload(snapshotVersion, payload)
}

// TestShardFrameChecksumVerified: a nested shard frame that fails its own
// checksum fails the load, eager and (once the shard is touched) mmap.
func TestShardFrameChecksumVerified(t *testing.T) {
	raw := nestedCRCCorrupt(t)
	if _, err := ReadRepresentation(bytes.NewReader(raw)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("eager load: err = %v, want ErrBadSnapshot", err)
	}
	if err := mmapDecode(t, t.TempDir(), raw); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("mmap load: err = %v, want ErrBadSnapshot", err)
	}
}

// TestReadRepresentationSizesPayloadOnce: a reader that knows its length
// (a regular file, a bytes.Reader) has a header that claims more than it
// holds rejected before the payload is allocated; a valid snapshot loads
// through those readers and through a plain io.Reader alike.
func TestReadRepresentationSizesPayloadOnce(t *testing.T) {
	view, db := triangleFixture(t)
	rep, err := Build(view, db, WithStrategy(MaterializedStrategy))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	path := filepath.Join(t.TempDir(), "rep.cqs")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, rd := range map[string]io.Reader{
		"file":   f,
		"bytes":  bytes.NewReader(good),
		"stream": io.MultiReader(bytes.NewReader(good)),
	} {
		loaded, err := ReadRepresentation(rd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(snapshotBytes(t, loaded), good) {
			t.Fatalf("%s: the loaded representation re-encodes differently", name)
		}
	}

	// A header claiming 64 MiB in front of the real payload.
	const claim = 64 << 20
	lying := append([]byte(nil), good...)
	for i := 0; i < 8; i++ {
		lying[len(snapshotMagic)+2+i] = byte(uint64(claim) >> (56 - 8*i))
	}
	lyingPath := filepath.Join(t.TempDir(), "lying.cqs")
	if err := os.WriteFile(lyingPath, lying, 0o644); err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(lyingPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	for name, rd := range map[string]io.Reader{"file": lf, "bytes": bytes.NewReader(lying)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadRepresentation(rd)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > claim/4 {
			t.Errorf("%s: rejecting the oversized header allocated %d bytes", name, grew)
		}
	}
}

// TestMaintainedQueryTakesNoLock: a reader never waits on the buffer lock,
// which a writer holds across its update-log append — not on a fresh
// snapshot, not on a stale one whose rebuild is in flight, and not after a
// rebuild failed — and a Query on a stale buffer (here filled by Replay,
// which never triggers a rebuild itself) still starts the rebuild.
func TestMaintainedQueryTakesNoLock(t *testing.T) {
	view, db := smallMaintainedDB()
	m, err := NewMaintained(view, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	taken := make(chan struct{}, 1)
	release := make(chan struct{})
	m.testHookBatchTaken = func() {
		select {
		case taken <- struct{}{}:
		default:
		}
		<-release
	}
	queryUnderLock := func(stage string) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		done := make(chan []relation.Tuple)
		go func() {
			it, _ := m.Query(relation.Tuple{1})
			done <- Drain(it)
		}()
		select {
		case got := <-done:
			if len(got) == 0 {
				t.Errorf("%s: query under a held buffer lock answered nothing", stage)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Query waited on the buffer lock", stage)
		}
	}
	queryUnderLock("fresh")

	if err := m.Replay("R", relation.Tuple{1, 7}, false); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 1 || m.Rebuilds() != 0 {
		t.Fatalf("pending=%d rebuilds=%d after Replay", m.Pending(), m.Rebuilds())
	}
	if _, err := m.Query(relation.Tuple{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-taken:
	case <-time.After(10 * time.Second):
		t.Fatal("a stale Query did not start a rebuild")
	}
	// The rebuild holds its batch: the buffer stays stale until it ends.
	queryUnderLock("stale, rebuild in flight")
	close(release)
	m.Quiesce()
	if m.Pending() != 0 || m.Rebuilds() != 1 {
		t.Fatalf("pending=%d rebuilds=%d: a stale Query did not rebuild", m.Pending(), m.Rebuilds())
	}

	if err := m.Replay("R", relation.Tuple{1, 8}, false); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.setErrLocked(errors.New("injected rebuild failure"))
	m.mu.Unlock()
	queryUnderLock("stale, rebuild failed")
	m.Quiesce()
	if m.Rebuilds() != 1 {
		t.Fatalf("rebuilds=%d: a Query rebuilt past a standing failure", m.Rebuilds())
	}
	if err := m.Flush(); err == nil {
		t.Fatal("Flush did not report the standing failure")
	}
	if err := m.Flush(); err != nil || m.Pending() != 0 {
		t.Fatalf("second Flush: %v, pending=%d", err, m.Pending())
	}
}

// TestWriteToStreamsFrame: WriteTo never holds a frame in memory whole,
// each shard keeps the payload length it counted, and the composite's
// frame carries each shard's own frame, byte for byte, as WriteShard
// writes it.
func TestWriteToStreamsFrame(t *testing.T) {
	s := relation.NewRelation("S", 2)
	for x := relation.Value(0); x < 64; x++ {
		for y := relation.Value(0); y < 2048; y++ {
			s.MustInsert(x, 3*y+x%3)
		}
	}
	db := relation.NewDatabase()
	db.Add(s)
	rep, err := Build(cq.MustParse("W[bf](x, y) :- S(x, y)"), db, WithStrategy(MaterializedStrategy), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	frame := snapshotBytes(t, rep)
	for i, sub := range rep.be.(*shardedBackend).subs {
		var shard bytes.Buffer
		if _, err := rep.WriteShard(i, &shard); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(frame, shard.Bytes()) {
			t.Fatalf("shard %d's frame is not nested verbatim in the composite's", i)
		}
		if got := frameLen(sub.payloadSize.Load()); got != int64(shard.Len()) {
			t.Fatalf("shard %d kept a payload count for a %d-byte frame; its frame is %d bytes", i, got, shard.Len())
		}
	}
	if got := frameLen(rep.payloadSize.Load()); got != int64(len(frame)) {
		t.Fatalf("kept a payload count for a %d-byte frame; WriteTo wrote %d bytes", got, len(frame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := rep.WriteTo(io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil || n != int64(len(frame)) {
		t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, len(frame))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(frame))/8 {
		t.Errorf("writing a %d-byte frame allocated %d bytes", len(frame), grew)
	}
	if again := snapshotBytes(t, rep); !bytes.Equal(again, frame) {
		t.Fatal("a second WriteTo wrote different bytes")
	}
}
