package join

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"cqrep/internal/cq"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// referenceDomain is the active domain of variable id by the definition:
// every value the variable takes in any atom holding it, deduplicated
// through a map, then sorted.
func referenceDomain(nv *cq.NormalizedView, id int) []relation.Value {
	seen := map[relation.Value]bool{}
	for _, na := range nv.Atoms {
		for col, v := range na.Vars {
			if v != id {
				continue
			}
			for i, n := 0, na.Rel.Len(); i < n; i++ {
				seen[na.Rel.Row(i)[col]] = true
			}
		}
	}
	out := make([]relation.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestDomainsMatchReference: on random normalized views, every free and
// bound domain equals the map-and-sort reference and is exactly sized
// (len == cap), so no domain pins a larger gathered array. The generator
// must reach a variable held by one, two and three atoms, a self-join, an
// empty relation and negative values.
func TestDomainsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var holders [4]int
	selfJoins, empties, negatives := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		nVars := 1 + rng.Intn(4)
		db := relation.NewDatabase()
		var rels []*relation.Relation
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			rel := relation.NewRelation(fmt.Sprintf("R%d", i), 1+rng.Intn(3))
			rows := 0
			if rng.Intn(6) > 0 {
				rows = 1 + rng.Intn(50)
			}
			for j := 0; j < rows; j++ {
				tup := make(relation.Tuple, rel.Arity())
				for c := range tup {
					tup[c] = relation.Value(rng.Intn(21) - 10)
				}
				rel.MustInsert(tup...)
			}
			db.Add(rel)
			rels = append(rels, rel)
		}
		view := &cq.View{Name: "Q"}
		for v := 0; v < nVars; v++ {
			view.Head = append(view.Head, fmt.Sprintf("v%d", v))
			view.Pattern = append(view.Pattern, []cq.Adornment{cq.Free, cq.Bound}[rng.Intn(2)])
		}
		covered := make([]bool, nVars)
		used := map[string]bool{}
		addAtom := func(rel *relation.Relation, vars []int) {
			atom := cq.Atom{Relation: rel.Name()}
			for _, v := range vars {
				atom.Terms = append(atom.Terms, cq.V(view.Head[v]))
				covered[v] = true
			}
			if used[rel.Name()] {
				selfJoins++
			}
			used[rel.Name()] = true
			view.Body = append(view.Body, atom)
		}
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			rel := rels[rng.Intn(len(rels))]
			vars := make([]int, rel.Arity())
			for c := range vars {
				vars[c] = rng.Intn(nVars) // a repeat makes a derived relation
			}
			addAtom(rel, vars)
		}
		for v := range covered {
			if !covered[v] {
				addAtom(rels[0], slices.Repeat([]int{v}, rels[0].Arity()))
			}
		}
		nv, err := cq.Normalize(view, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		inst, err := NewInstance(nv)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, rel := range rels {
			if rel.Len() == 0 {
				empties++
			}
		}
		check := func(kind string, pos, id int, got []relation.Value) {
			t.Helper()
			want := referenceDomain(nv, id)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d %s: %s domain %d = %v, want %v", trial, view, kind, pos, got, want)
			}
			if len(got) != cap(got) {
				t.Fatalf("trial %d %s: %s domain %d has len %d, cap %d", trial, view, kind, pos, len(got), cap(got))
			}
			n := 0
			for _, na := range nv.Atoms {
				if slices.Contains(na.Vars, id) {
					n++
				}
			}
			holders[min(n, 3)]++
			if len(got) > 0 && got[0] < 0 {
				negatives++
			}
		}
		for d, id := range nv.Free {
			check("free", d, id, inst.FreeDomain(d))
		}
		for i, id := range nv.Bound {
			check("bound", i, id, inst.BoundDomain(i))
		}
	}
	if holders[1] == 0 || holders[2] == 0 || holders[3] == 0 || selfJoins == 0 || empties == 0 || negatives == 0 {
		t.Errorf("generator missed a case: held by 1/2/3+ atoms %d/%d/%d, self-joins %d, empty relations %d, negative domains %d",
			holders[1], holders[2], holders[3], selfJoins, empties, negatives)
	}
}

// TestInstanceCompletesLazily: NewInstance builds each atom's BoundFirst
// index and nothing else; FreeFirst is sorted on its first read, and the
// first read of any domain builds them all.
func TestInstanceCompletesLazily(t *testing.T) {
	inst := scanInstance(t, "W[bf](x, y) :- S(x, y)")
	if LazyBuiltForTest(inst) {
		t.Fatal("NewInstance built a FreeFirst index or a domain")
	}
	a := inst.Atoms[0]
	if got := a.BoundFirst.Columns(); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("BoundFirst orders by %v, want [0 1]", got)
	}
	inst.BoundDomain(0)
	if inst.freeDomains == nil || a.freeFirst == nil {
		t.Fatal("the first domain read must build every domain, FreeFirst's leading column's through FreeFirst")
	}
	if got := a.FreeFirst().Columns(); !slices.Equal(got, []int{1, 0}) {
		t.Fatalf("FreeFirst orders by %v, want [1 0]", got)
	}
}

// TestInstanceFirstReadsRace has eight goroutines make the first read of
// FreeFirst and of a domain on one instance at once (run it under -race):
// each part is built once and every reader gets the same one.
func TestInstanceFirstReadsRace(t *testing.T) {
	inst := scanInstance(t, "W[bf](x, y) :- S(x, y)")
	const readers = 8
	ixs := make([]*relation.Index, readers)
	doms := make([]*relation.Value, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				doms[g] = unsafe.SliceData(inst.FreeDomain(0))
				ixs[g] = inst.Atoms[0].FreeFirst()
			} else {
				ixs[g] = inst.Atoms[0].FreeFirst()
				doms[g] = unsafe.SliceData(inst.FreeDomain(0))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if ixs[g] != ixs[0] || doms[g] != doms[0] {
			t.Fatalf("reader %d got its own FreeFirst or domain", g)
		}
	}
	if want := referenceDomain(inst.NV, inst.NV.Free[0]); !slices.Equal(inst.FreeDomain(0), want) {
		t.Fatalf("free domain = %v, want %v", inst.FreeDomain(0), want)
	}
}

// TestNewInstanceRejectsUnheldHead: a normalized view built by hand skips
// cq.View.Validate, so NewInstance itself rejects a head variable that no
// atom holds, free or bound — the join would have no index to walk it in.
func TestNewInstanceRejectsUnheldHead(t *testing.T) {
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	for _, c := range []struct {
		name        string
		free, bound []int
		ok          bool
	}{
		{"held", []int{0}, []int{1}, true},
		{"free", []int{0, 2}, []int{1}, false},
		{"bound", []int{0}, []int{1, 2}, false},
	} {
		nv := &cq.NormalizedView{
			Vars:  []string{"x", "y", "z"},
			Free:  c.free,
			Bound: c.bound,
			Atoms: []cq.NAtom{{Rel: r, Vars: []int{0, 1}}},
		}
		if _, err := NewInstance(nv); (err == nil) != c.ok {
			t.Errorf("%s: NewInstance error %v, want one: %v", c.name, err, !c.ok)
		}
	}
}

// scanInstance is the instance of view over a small two-column S.
func scanInstance(t *testing.T, view string) *Instance {
	t.Helper()
	s := relation.NewRelation("S", 2)
	for k := 0; k < 16; k++ {
		for j := 0; j < 32; j++ {
			s.MustInsert(relation.Value(k), relation.Value((j*7+k)%41))
		}
	}
	db := relation.NewDatabase()
	db.Add(s)
	nv, err := cq.Normalize(cq.MustParse(view), db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// BenchmarkNewInstance prices the shell every compile and every snapshot
// load builds: the BoundFirst indexes of the scan fixture's views over a
// 64×8192 binary relation, where each variable sits in one atom, and of
// the triangle over a skewed 2000-vertex graph, where each sits in two.
// FreeFirst and the domains wait for a first read, so they are not in it.
// Each iteration starts from fresh copies of the relations, so no index
// is cached.
func BenchmarkNewInstance(b *testing.B) {
	const keys, perKey, stride = 64, 8192, 128
	rng := rand.New(rand.NewSource(1))
	s := relation.NewRelation("S", 2)
	for k := 0; k < keys; k++ {
		for j := 0; j < perKey; j++ {
			s.MustInsert(relation.Value(k), relation.Value(j*stride+rng.Intn(stride)))
		}
	}
	scan := relation.NewDatabase()
	scan.Add(s)
	for _, c := range []struct {
		view string
		db   *relation.Database
	}{
		{"W[bf](x, y) :- S(x, y)", scan},
		{"F[ff](x, y) :- S(x, y)", scan},
		{"V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)", workload.SkewedTriangleDB(42, 2000, 20000)},
	} {
		view := cq.MustParse(c.view)
		c.db.Size() // sort and deduplicate once, outside the timer
		b.Run(view.Name+"["+view.Pattern.String()+"]", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nv, err := cq.Normalize(view, c.db.Clone())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := NewInstance(nv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
