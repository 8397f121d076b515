// Package workload generates the synthetic datasets used to validate the
// paper's tradeoffs: random (social-network style) graphs for the triangle
// views of Example 1, star and path instances for Examples 7 and 10,
// Loomis–Whitney instances for Example 6, Zipf-distributed set families for
// the set-intersection application of Section 3.1, and a synthetic DBLP
// author–paper bipartite relation for the co-author application of the
// introduction.
//
// All generators are deterministic given the caller's *rand.Rand, so
// benchmark tables are reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// Graph returns a binary relation "name" with approximately edges distinct
// directed edges over the given number of nodes.
func Graph(rng *rand.Rand, name string, nodes, edges int) *relation.Relation {
	r := relation.NewRelation(name, 2)
	for i := 0; i < edges; i++ {
		a := relation.Value(rng.Intn(nodes))
		b := relation.Value(rng.Intn(nodes))
		r.MustInsert(a, b)
	}
	return r
}

// SymmetricGraph returns an undirected (symmetric) friendship relation with
// approximately edges undirected edges, inserted in both directions, as in
// Example 1.
func SymmetricGraph(rng *rand.Rand, name string, nodes, edges int) *relation.Relation {
	r := relation.NewRelation(name, 2)
	for i := 0; i < edges; i++ {
		a := relation.Value(rng.Intn(nodes))
		b := relation.Value(rng.Intn(nodes))
		if a == b {
			continue
		}
		r.MustInsert(a, b)
		r.MustInsert(b, a)
	}
	return r
}

// SkewedGraph returns a symmetric graph whose endpoints are Zipf-skewed,
// producing the hub-heavy degree distributions of real social networks —
// the regime where heavy valuations exist at moderate τ.
func SkewedGraph(rng *rand.Rand, name string, nodes, edges int) *relation.Relation {
	r := relation.NewRelation(name, 2)
	z := NewZipf(nodes, 1.2)
	for i := 0; i < edges; i++ {
		a := relation.Value(z.Draw(rng))
		b := relation.Value(rng.Intn(nodes))
		if a == b {
			continue
		}
		r.MustInsert(a, b)
		r.MustInsert(b, a)
	}
	return r
}

// SkewedTriangleDB is TriangleDB over a hub-heavy graph.
func SkewedTriangleDB(seed int64, nodes, edges int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	db.Add(SkewedGraph(rng, "R", nodes, edges))
	return db
}

// TriangleDB returns a database with a single symmetric relation R suitable
// for the mutual-friend view V^bfb(x,y,z) = R(x,y),R(y,z),R(z,x).
func TriangleDB(seed int64, nodes, edges int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	db.Add(SymmetricGraph(rng, "R", nodes, edges))
	return db
}

// HubPairGraph is the symmetric graph of the adversarial triangle
// request: two hubs, vertices 1 and 2, joined by an edge, each with
// edges/4 satellites, the hubs' neighborhoods disjoint, over a random
// background graph of up to edges/2 edges. The request (1, 2) to the
// mutual-friend view V^bfb(x,y,z) = R(x,y),R(y,z),R(z,x) is heavy but has
// no answer.
func HubPairGraph(rng *rand.Rand, name string, edges int) *relation.Relation {
	r := relation.NewRelation(name, 2)
	const hub1, hub2 = 1, 2
	deg := edges / 4
	for i := 0; i < deg; i++ {
		a := relation.Value(10 + 2*i) // even satellites of hub1
		b := relation.Value(11 + 2*i) // odd satellites of hub2
		r.MustInsert(hub1, a)
		r.MustInsert(a, hub1)
		r.MustInsert(hub2, b)
		r.MustInsert(b, hub2)
	}
	r.MustInsert(hub1, hub2) // the bound pair itself must be an edge
	r.MustInsert(hub2, hub1)
	base := 10 + 2*deg + 2
	for i := 0; i < edges/2; i++ {
		a := relation.Value(base + rng.Intn(edges/6))
		b := relation.Value(base + rng.Intn(edges/6))
		if a != b {
			r.MustInsert(a, b)
			r.MustInsert(b, a)
		}
	}
	return r
}

// StarDB returns relations R1..Rn of the star join S_n(x1..xn, z) =
// R1(x1,z), ..., Rn(xn,z) with sizePer tuples each. Skew concentrates a
// fraction of tuples on few z values so that slack-aware compression has
// something to exploit.
func StarDB(seed int64, n, sizePer, domain int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	zipf := NewZipf(domain, 1.2)
	for i := 1; i <= n; i++ {
		r := relation.NewRelation(fmt.Sprintf("R%d", i), 2)
		for k := 0; k < sizePer; k++ {
			x := relation.Value(rng.Intn(domain))
			z := relation.Value(zipf.Draw(rng))
			r.MustInsert(x, z)
		}
		db.Add(r)
	}
	return db
}

// StarView returns the adorned star view S_n^{b..bf}.
func StarView(n int) *cq.View {
	head := ""
	body := ""
	pattern := ""
	for i := 1; i <= n; i++ {
		if i > 1 {
			head += ", "
			body += ", "
		}
		head += fmt.Sprintf("x%d", i)
		body += fmt.Sprintf("R%d(x%d, z)", i, i)
		pattern += "b"
	}
	return cq.MustParse(fmt.Sprintf("S[%sf](%s, z) :- %s", pattern, head, body))
}

// PathDB returns relations R1..Rn of the path join P_n(x1..x_{n+1}) =
// R1(x1,x2), ..., Rn(xn,x_{n+1}) with sizePer tuples each.
func PathDB(seed int64, n, sizePer, domain int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	for i := 1; i <= n; i++ {
		r := relation.NewRelation(fmt.Sprintf("R%d", i), 2)
		for k := 0; k < sizePer; k++ {
			r.MustInsert(relation.Value(rng.Intn(domain)), relation.Value(rng.Intn(domain)))
		}
		db.Add(r)
	}
	return db
}

// PathView returns the adorned path view P_n^{bf..fb}(x1..x_{n+1}) of
// Example 10: endpoints bound, middle free.
func PathView(n int) *cq.View {
	head, body, pattern := "", "", ""
	for i := 1; i <= n+1; i++ {
		if i > 1 {
			head += ", "
		}
		head += fmt.Sprintf("x%d", i)
		if i == 1 || i == n+1 {
			pattern += "b"
		} else {
			pattern += "f"
		}
	}
	for i := 1; i <= n; i++ {
		if i > 1 {
			body += ", "
		}
		body += fmt.Sprintf("R%d(x%d, x%d)", i, i, i+1)
	}
	return cq.MustParse(fmt.Sprintf("P[%s](%s) :- %s", pattern, head, body))
}

// LWDB returns relations S1..Sn of the Loomis–Whitney join LW_n
// (Example 6): S_i has arity n-1 over all variables except x_i.
func LWDB(seed int64, n, sizePer, domain int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	for i := 1; i <= n; i++ {
		r := relation.NewRelation(fmt.Sprintf("S%d", i), n-1)
		for k := 0; k < sizePer; k++ {
			t := make(relation.Tuple, n-1)
			for j := range t {
				t[j] = relation.Value(rng.Intn(domain))
			}
			if err := r.Insert(t); err != nil {
				panic(err)
			}
		}
		db.Add(r)
	}
	return db
}

// LWView returns the adorned view LW_n^{b..bf}(x1..xn) of Example 6.
func LWView(n int) *cq.View {
	head, body, pattern := "", "", ""
	for i := 1; i <= n; i++ {
		if i > 1 {
			head += ", "
		}
		head += fmt.Sprintf("x%d", i)
		if i < n {
			pattern += "b"
		} else {
			pattern += "f"
		}
	}
	for i := 1; i <= n; i++ {
		if i > 1 {
			body += ", "
		}
		args := ""
		first := true
		for j := 1; j <= n; j++ {
			if j == i {
				continue
			}
			if !first {
				args += ", "
			}
			first = false
			args += fmt.Sprintf("x%d", j)
		}
		body += fmt.Sprintf("S%d(%s)", i, args)
	}
	return cq.MustParse(fmt.Sprintf("LW[%s](%s) :- %s", pattern, head, body))
}

// SetFamilyDB returns a membership relation R(set, element) for numSets
// sets over a universe, with Zipf-skewed element popularity — the
// fast-set-intersection workload of [13] as framed at the end of
// Section 3.1.
func SetFamilyDB(seed int64, numSets, universe, totalSize int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	z := NewZipf(universe, 1.1)
	for k := 0; k < totalSize; k++ {
		s := relation.Value(rng.Intn(numSets))
		e := relation.Value(z.Draw(rng))
		r.MustInsert(s, e)
	}
	db.Add(r)
	return db
}

// SetIntersectionView returns S_2^{bbf}(x1, x2, z) = R(x1,z), R(x2,z).
func SetIntersectionView() *cq.View {
	return cq.MustParse("S[bbf](x1, x2, z) :- R(x1, z), R(x2, z)")
}

// CoauthorDB returns an author–paper relation R(author, paper) with
// Zipf-skewed paper counts per author, modeling the DBLP workload of the
// introduction.
func CoauthorDB(seed int64, authors, papers, entries int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	z := NewZipf(authors, 1.1)
	for k := 0; k < entries; k++ {
		a := relation.Value(z.Draw(rng))
		p := relation.Value(rng.Intn(papers))
		r.MustInsert(a, p)
	}
	db.Add(r)
	return db
}

// CoauthorView returns V^bf(x, y) = R(x, p), R(y, p) extended to the full
// view V^bff(x, y, p): given an author x, enumerate co-authors y (with the
// witnessing paper p).
func CoauthorView() *cq.View {
	return cq.MustParse("V[bff](x, y, p) :- R(x, p), R(y, p)")
}

// Zipf samples ranks {0..n-1} with P(rank k) ∝ 1/(k+1)^s — rank 0 is the
// hottest. It tabulates the exact truncated-zeta CDF once and inverts it
// by binary search, so the exponent is honored precisely — the property
// reproducible hot-key serving workloads need. It is the single Zipf
// sampler in the repo: the dataset generators above tabulate one per
// generator call and draw ranks from it (one rng draw per sample), which
// replaced an earlier approximate inverse-CDF sampler that ignored its
// exponent entirely. With s=1.1 over a handful of ranks the top rank
// carries a large constant fraction of all draws, which is what makes a
// bounded result cache (and a bucket-local delta apply) pay.
type Zipf struct {
	cdf []float64
}

// NewZipf tabulates the CDF for n ranks with exponent s. n < 1 is clamped
// to 1; s <= 0 degenerates to the uniform distribution (every rank weight
// 1), which is the honest reading of "no skew".
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	if s < 0 {
		s = 0
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// N reports the rank count.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank maps u ∈ [0,1) onto a rank by inverse CDF.
func (z *Zipf) Rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Draw samples one rank from rng; deterministic given the rng's state.
func (z *Zipf) Draw(rng *rand.Rand) int {
	return z.Rank(rng.Float64())
}

// RandomFullView builds a random full adorned view over nVars variables
// plus a database realizing it — the shared generator behind the
// cross-package property tests.
func RandomFullView(rng *rand.Rand, nVars, nAtoms, domain, rowsPerAtom int) (*cq.View, *relation.Database) {
	names := make([]string, nVars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	db := relation.NewDatabase()
	view := &cq.View{Name: "Q"}
	perm := rng.Perm(nVars)
	nFree := 1 + rng.Intn(nVars)
	isFree := make(map[int]bool)
	for _, p := range perm[:nFree] {
		isFree[p] = true
	}
	for i, n := range names {
		view.Head = append(view.Head, n)
		if isFree[i] {
			view.Pattern = append(view.Pattern, cq.Free)
		} else {
			view.Pattern = append(view.Pattern, cq.Bound)
		}
	}
	covered := make(map[int]bool)
	addAtom := func(vars []int, idx int) {
		rel := relation.NewRelation(fmt.Sprintf("R%d", idx), len(vars))
		for i := 0; i < rowsPerAtom; i++ {
			t := make(relation.Tuple, len(vars))
			for j := range t {
				t[j] = relation.Value(rng.Intn(domain))
			}
			if err := rel.Insert(t); err != nil {
				panic(err)
			}
		}
		db.Add(rel)
		atom := cq.Atom{Relation: rel.Name()}
		for _, v := range vars {
			atom.Terms = append(atom.Terms, cq.V(names[v]))
			covered[v] = true
		}
		view.Body = append(view.Body, atom)
	}
	for i := 0; i < nAtoms; i++ {
		k := 1 + rng.Intn(3)
		if k > nVars {
			k = nVars
		}
		addAtom(rng.Perm(nVars)[:k], i)
	}
	var leftovers []int
	for v := 0; v < nVars; v++ {
		if !covered[v] {
			leftovers = append(leftovers, v)
		}
	}
	if len(leftovers) > 0 {
		addAtom(leftovers, nAtoms)
	}
	return view, db
}
