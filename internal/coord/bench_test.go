package coord

import (
	"math/rand"
	"net/http"
	"testing"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// BenchmarkCoordNew prices coordinator start over the scan snapshot pair:
// W[bf](x, y) and its all-free scatter view F[ff](x, y) over S with 64
// keys × 8192 answers, each materialized in 3 shards. Start reads both
// snapshots and writes their six shard files to the spool directory.
func BenchmarkCoordNew(b *testing.B) {
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
	dir := b.TempDir()
	var paths []string
	for _, v := range []struct{ name, view string }{
		{"view", "W[bf](x, y) :- S(x, y)"},
		{"scatter", "F[ff](x, y) :- S(x, y)"},
	} {
		rep, err := core.Build(cq.MustParse(v.view), db, core.WithStrategy(core.MaterializedStrategy), core.WithShards(3))
		if err != nil {
			b.Fatal(err)
		}
		path := dir + "/" + v.name + ".cqs"
		if err := rep.Save(path); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
	}
	spool := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(paths, Options{SpoolDir: spool})
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkCoordRelay prices the coordinator's data path per request, in
// the binary framing, with the three workers reached over loopback HTTP:
// a routed request for one key's 8192 answers, and an all-free scatter of
// 4 keys × 8192 answers merged from 3 shards. The client side is the
// coordinator's handler writing into a discarding response.
func BenchmarkCoordRelay(b *testing.B) {
	const keys, answers = 4, 8192
	paths := relaySnapshots(b, keys, answers)
	cl := startCluster(b, paths, 3, 0)
	for _, c := range []struct {
		name, view, body string
		tuples           int
	}{
		{"routed", "W", `{"bindings":{"x":1}}`, answers},
		{"scatter", "F", `{}`, keys * answers},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := &discardResponse{header: make(http.Header)}
			body := []byte(c.body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				relayOnce(b, cl.coord, w, c.view, body, c.tuples*8)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.tuples), "ns/tuple")
		})
	}
}
