package main

import (
	"fmt"
	"math/rand"
	"time"

	"cqrep"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// A fixture is one workload's generated input: a database, the adorned
// view served over it with its strategy pinned (so a planner change cannot
// pass for a speed-up), the access requests in the order clients issue
// them, and the wire encoding. The all-free scatter view over the same body
// is what a coordinator has to merge across shards; the churn relation is
// the one an update script writes to. Every layer probe of the traced pass
// takes a fixture, so each layer is priced on each workload's own data.
type fixture struct {
	view    string
	scatter string
	// strategy and tau (0 = unset) pin the compiled structure.
	strategy core.Strategy
	tau      float64
	format   httpserve.Format
	db       *relation.Database
	reqs     []relation.Tuple
	// churnRel is the binary relation the update script writes to, and
	// churnDomain the number of values each of its two columns ranges over.
	churnRel    string
	churnDomain [2]int
	genSeconds  float64
}

// engine names the serving stack a workload's end-to-end window runs on.
type engine int

const (
	engineNode  engine = iota // one httpserve.Handler over loopback TCP
	engineDist                // coord.Coordinator over three joined workers
	engineChurn               // cqrep.Maintained with a WAL, in-process
)

type workloadDef struct {
	name   string
	engine engine
	gen    func(seed int64, smoke bool) *fixture
}

// workloads is the benchmark's contract with later issues: the names and
// what each one stresses are listed in BENCHMARK.json and README.md.
var workloads = []workloadDef{
	{"scan-binary", engineNode, genScan},
	{"point-ndjson", engineNode, genPoint},
	{"dist-scan", engineDist, genScan},
	{"churn-readwrite", engineChurn, genChurn},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

func (w workloadDef) generate(seed int64, smoke bool) *fixture {
	start := time.Now()
	fx := w.gen(seed, smoke)
	fx.genSeconds = time.Since(start).Seconds()
	return fx
}

// smokeDiv shrinks every fixture for the package's own tests.
const smokeDiv = 16

// genScan is the fan-out fixture: 64 bound keys with 8192 answers each, so
// a request's per-tuple cost dwarfs its fixed cost. The answers are seeded
// (distinct, one per stride of 128) and so is the order the keys are asked.
func genScan(seed int64, smoke bool) *fixture {
	const keys, stride = 64, 128
	perKey := 8192
	if smoke {
		perKey /= smokeDiv
	}
	rng := rand.New(rand.NewSource(seed))
	s := relation.NewRelation("S", 2)
	for k := 0; k < keys; k++ {
		for j := 0; j < perKey; j++ {
			s.MustInsert(relation.Value(k), relation.Value(j*stride+rng.Intn(stride)))
		}
	}
	db := relation.NewDatabase()
	db.Add(s)
	reqs := make([]relation.Tuple, keys)
	for i, k := range rng.Perm(keys) {
		reqs[i] = relation.Tuple{relation.Value(k)}
	}
	return &fixture{
		view:        "W[bf](x, y) :- S(x, y)",
		scatter:     "F[ff](x, y) :- S(x, y)",
		strategy:    core.MaterializedStrategy,
		format:      httpserve.FormatBinary,
		db:          db,
		reqs:        reqs,
		churnRel:    "S",
		churnDomain: [2]int{keys, perKey * stride},
	}
}

// pointGraphSeed fixes the shape of genPoint's graph; see there.
const pointGraphSeed = 42

// genPoint is the paper's Example 1, the mutual-friend view over a
// hub-heavy graph, compiled to the Theorem-1 structure at a pinned τ. One
// request per edge (x,z): a handful of answers each, so the fixed cost of a
// request dominates and the compressed structure does measurable work.
//
// The graph's shape comes from one fixed seed and the run's seed relabels
// its vertices. Every seed therefore serves an isomorphic graph — other
// values, other sort orders, other dictionary and shard placement, but the
// same degree sequence and the same answer counts. A freshly drawn skewed
// graph per seed moved tuples per second by 7% and the snapshot size by 4%
// between seeds, through nothing but how many triangles the hubs happened
// to close.
func genPoint(seed int64, smoke bool) *fixture {
	nodes, edges := 2000, 20000
	if smoke {
		nodes, edges = nodes/smokeDiv, edges/smokeDiv
	}
	shape, err := workload.SkewedTriangleDB(pointGraphSeed, nodes, edges).Relation("R")
	if err != nil {
		panic(err) // the generator always adds R
	}
	label := rand.New(rand.NewSource(seed)).Perm(nodes)
	r := relation.NewRelation("R", 2)
	for _, t := range shape.Tuples() {
		r.MustInsert(relation.Value(label[t[0]]), relation.Value(label[t[1]]))
	}
	db := relation.NewDatabase()
	db.Add(r)
	rows := r.Tuples()
	rng := rand.New(rand.NewSource(seed + 1))
	reqs := make([]relation.Tuple, len(rows))
	for i, j := range rng.Perm(len(rows)) {
		reqs[i] = relation.Tuple{rows[j][0], rows[j][1]}
	}
	return &fixture{
		view:        "V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)",
		scatter:     "F[fff](x, y, z) :- R(x, y), R(y, z), R(z, x)",
		strategy:    core.PrimitiveStrategy,
		tau:         8,
		format:      httpserve.FormatNDJSON,
		db:          db,
		reqs:        reqs,
		churnRel:    "R",
		churnDomain: [2]int{nodes, nodes},
	}
}

// genChurn is experiment E20's join-bucket case grown until maintenance
// does real work: S(x,p) is churned, T(p,y) is a static fan-out of 32, and
// the materialized output is about thirty times the churned relation, so a
// full recompile re-joins everything while a delta touches only the changed
// derivations. Every key x joins a quarter of the p domain, which ones being
// seeded, so every request has the same number of answers on every seed and
// a reader's tail measures interference from the writer, not which key the
// Zipf draw happened to make hot.
func genChurn(seed int64, smoke bool) *fixture {
	domain := 256
	const fan = 32
	if smoke {
		domain = 64
	}
	rng := rand.New(rand.NewSource(seed))
	s := relation.NewRelation("S", 2)
	for x := 0; x < domain; x++ {
		for _, p := range rng.Perm(domain)[:domain/4] {
			s.MustInsert(relation.Value(x), relation.Value(p))
		}
	}
	t := relation.NewRelation("T", 2)
	for p := 0; p < domain; p++ {
		for y := 0; y < fan; y++ {
			t.MustInsert(relation.Value(p), relation.Value(y))
		}
	}
	db := relation.NewDatabase()
	db.Add(s)
	db.Add(t)
	reqs := make([]relation.Tuple, domain)
	for i, k := range rng.Perm(domain) {
		reqs[i] = relation.Tuple{relation.Value(k)}
	}
	return &fixture{
		view:        "W[bf](x, y) :- S(x, p), T(p, y)",
		scatter:     "F[ff](x, y) :- S(x, p), T(p, y)",
		strategy:    core.MaterializedStrategy,
		format:      httpserve.FormatBinary,
		db:          db,
		reqs:        reqs,
		churnRel:    "S",
		churnDomain: [2]int{domain, domain},
	}
}

// coreOpts and pubOpts spell the pinned structure for the internal and the
// public compile entry points.
func (fx *fixture) coreOpts(extra ...core.Option) []core.Option {
	opts := []core.Option{core.WithStrategy(fx.strategy)}
	if fx.tau > 0 {
		opts = append(opts, core.WithTau(fx.tau))
	}
	return append(opts, extra...)
}

func (fx *fixture) pubOpts(extra ...cqrep.Option) []cqrep.Option {
	opts := []cqrep.Option{cqrep.WithStrategy(fx.strategy)}
	if fx.tau > 0 {
		opts = append(opts, cqrep.WithTau(fx.tau))
	}
	return append(opts, extra...)
}

func (fx *fixture) parsedView() *cq.View    { return cq.MustParse(fx.view) }
func (fx *fixture) parsedScatter() *cq.View { return cq.MustParse(fx.scatter) }

// bindings names a positional valuation the way the wire API wants it.
func bindings(bound []string, vb relation.Tuple) map[string]relation.Value {
	m := make(map[string]relation.Value, len(bound))
	for i, name := range bound {
		m[name] = vb[i]
	}
	return m
}
