package baseline

import (
	"bytes"
	"runtime"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// scanInstance is the benchmark's scan fixture at the given size: keys
// bound values, perKey answers each, one per stride of 128, served by
// W[bf](x, y) :- S(x, y).
func scanInstance(t testing.TB, keys, perKey int) (*join.Instance, *relation.Relation) {
	t.Helper()
	s := relation.NewRelation("S", 2)
	for k := 0; k < keys; k++ {
		for j := 0; j < perKey; j++ {
			s.MustInsert(relation.Value(k), relation.Value(j*128+(k*7+j*13)%128))
		}
	}
	db := relation.NewDatabase()
	db.Add(s)
	nv, err := cq.Normalize(cq.MustParse("W[bf](x, y) :- S(x, y)"), db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	return inst, s
}

// encodeBuckets writes a materialized payload by hand, buckets in the
// order given, so tests can build what no correct writer emits.
func encodeBuckets(buckets []testBucket) []byte {
	var buf bytes.Buffer
	e := relation.NewEncoder(&buf)
	e.Int(0)
	e.Uint(uint64(len(buckets)))
	for _, b := range buckets {
		e.Raw(relation.Tuple{b.key}.AppendEncode(nil))
		e.Uint(uint64(len(b.free)))
		for _, v := range b.free {
			e.Value(v)
		}
	}
	return buf.Bytes()
}

type testBucket struct {
	key  relation.Value
	free []relation.Value // one free value per answer
}

// TestDecodeMaterializedRejectsDisorder: a materialized payload must hold
// its buckets in key order and each bucket's answers strictly increasing.
// A payload that repeats or reorders answers would serve an answer twice
// or out of order, and breaks MergeBlocks' sorted-input assumption.
func TestDecodeMaterializedRejectsDisorder(t *testing.T) {
	inst, _ := scanInstance(t, 2, 4)
	for _, c := range []struct {
		name    string
		buckets []testBucket
		ok      bool
	}{
		{"in order", []testBucket{{1, []relation.Value{10, 30}}, {2, []relation.Value{5}}}, true},
		{"repeated then smaller", []testBucket{{1, []relation.Value{30, 30, 10}}}, false},
		{"repeated last", []testBucket{{1, []relation.Value{10, 30, 30}}}, false},
		{"descending", []testBucket{{1, []relation.Value{30, 10}}}, false},
		{"keys descending", []testBucket{{2, []relation.Value{5}}, {1, []relation.Value{10}}}, false},
		{"key repeated", []testBucket{{1, []relation.Value{10}}, {1, []relation.Value{30}}}, false},
		{"empty bucket", []testBucket{{1, nil}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw := encodeBuckets(c.buckets)
			m, err := DecodeMaterialized(relation.NewDecoder(raw), inst.NV)
			if !c.ok {
				if err == nil {
					t.Fatalf("decoded %d answers, want an error", m.Stats().Tuples)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			m.EncodeTo(relation.NewEncoder(&again))
			if !bytes.Equal(again.Bytes(), raw) {
				t.Fatal("re-encoding changed the bytes")
			}
		})
	}
}

// TestDecodeAllocsFlat: decoding a bucket allocates one slab however many
// answers it holds, so the count is the same at 1k and at 16k answers.
func TestDecodeAllocsFlat(t *testing.T) {
	var counts []float64
	for _, n := range []int{1 << 10, 1 << 14} {
		inst, _ := scanInstance(t, 1, n)
		m, err := Materialize(inst)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		m.EncodeTo(relation.NewEncoder(&buf))
		raw := buf.Bytes()
		counts = append(counts, testing.AllocsPerRun(10, func() {
			if _, err := DecodeMaterialized(relation.NewDecoder(raw), inst.NV); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] {
		t.Fatalf("decoding a bucket allocates %.0f times at 1k answers and %.0f at 16k", counts[0], counts[1])
	}
}

// liveBytes reports how much the live heap grows by build's result. The
// caller keeps build's inputs alive past the call.
func liveBytes(build func() any) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int(after.HeapAlloc) - int(before.HeapAlloc)
}

// TestScanFixtureFootprint pins the in-memory cost of the scan fixture's
// two stored forms, measured as live heap and as reported by the stats:
// a decoded base row costs at most 8·arity + 1 bytes and a decoded stored
// answer at most 8·μ + 1, so neither carries a per-row object or header.
func TestScanFixtureFootprint(t *testing.T) {
	const keys, perKey = 64, 2048
	inst, s := scanInstance(t, keys, perKey)
	m, err := Materialize(inst)
	if err != nil {
		t.Fatal(err)
	}
	var rel, view bytes.Buffer
	relation.NewEncoder(&rel).Relation(s)
	m.EncodeTo(relation.NewEncoder(&view))
	rows, answers := keys*perKey, m.Stats().Tuples
	if answers != rows {
		t.Fatalf("fixture stores %d answers over %d rows", answers, rows)
	}

	relBytes := liveBytes(func() any {
		r, err := relation.NewDecoder(rel.Bytes()).Relation()
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
	viewBytes := liveBytes(func() any {
		m, err := DecodeMaterialized(relation.NewDecoder(view.Bytes()), inst.NV)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	// The payloads stay live through both readings, so their bytes are
	// not counted as freed.
	runtime.KeepAlive(rel.Bytes())
	runtime.KeepAlive(view.Bytes())
	rowLimit, answerLimit := 8*s.Arity()+1, 8*inst.Mu+1
	for _, c := range []struct {
		what         string
		bytes, n, at int
	}{
		{"decoded base relation, live heap", relBytes, rows, rowLimit},
		{"base relation, SizeBytes", s.SizeBytes(), rows, rowLimit},
		{"decoded materialized view, live heap", viewBytes, answers, answerLimit},
		{"materialized view, Stats().Bytes", m.Stats().Bytes, answers, answerLimit},
	} {
		t.Logf("%s: %d B, %.2f B per row", c.what, c.bytes, float64(c.bytes)/float64(c.n))
		if c.bytes > c.at*c.n {
			t.Errorf("%s: %d B for %d rows, want at most %d B per row", c.what, c.bytes, c.n, c.at)
		}
	}
	if st := m.Stats().Bytes; st < 8*inst.Mu*answers {
		t.Errorf("Stats().Bytes = %d is below the %d B its slabs hold", st, 8*inst.Mu*answers)
	}
}
