package primitive

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/difftest"
	"cqrep/internal/fractional"
	"cqrep/internal/join"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// perNodeBuild makes Build enumerate every node's candidates on its own,
// the path the one-walk build replaces where join.Witnessed holds.
func perNodeBuild(c *buildConfig) { c.perNode = true }

// sameDictionary fails unless a and b have the same tree and the same
// dictionary arrays. The slot index is seeded per table; the valuations,
// their ranges and their entries are the dictionary.
func sameDictionary(t *testing.T, name string, a, b *Structure) {
	t.Helper()
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Fatalf("%s: tree nodes diverge", name)
	}
	x, y := &a.dict, &b.dict
	if !reflect.DeepEqual(x.vals, y.vals) || !reflect.DeepEqual(x.off, y.off) ||
		!reflect.DeepEqual(x.ids, y.ids) || !reflect.DeepEqual(x.bits, y.bits) ||
		x.live != y.live || len(x.slots) != len(y.slots) {
		t.Fatalf("%s: dictionaries diverge: %d entries vs %d", name, x.live, y.live)
	}
}

// walkMatchesPerNode builds inst both ways and requires identical
// structures. It reports whether the default build took the walk, failing
// if that disagrees with join.Witnessed.
func walkMatchesPerNode(t *testing.T, name string, inst *join.Instance, u fractional.Cover, tau float64) (walked bool, entries int) {
	t.Helper()
	walk, err := Build(inst, u, tau)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	perNode, err := Build(inst, u, tau, perNodeBuild)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if perNode.walked {
		t.Fatalf("%s: the per-node hook still walked", name)
	}
	if walk.root != nil && walk.walked != join.Witnessed(inst) {
		t.Fatalf("%s: walked = %v, join.Witnessed = %v", name, walk.walked, join.Witnessed(inst))
	}
	sameDictionary(t, name, walk, perNode)
	return walk.walked, walk.dict.live
}

func mustInstanceOf(t *testing.T, view *cq.View, db *relation.Database) *join.Instance {
	t.Helper()
	nv, err := cq.Normalize(view, db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestDictionaryWalkMatchesPerNode pins the one-walk dictionary build to
// the per-node one it replaces, array for array, on the experiments'
// fixtures and on every random differential instance the walk applies to.
func TestDictionaryWalkMatchesPerNode(t *testing.T) {
	triangle := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	type fixture struct {
		name string
		inst *join.Instance
		u    fractional.Cover
		taus []float64
	}
	uniform := workload.TriangleDB(42, 2000/12, 2000/2)
	r, _ := uniform.Relation("R")
	pointN := 20000 // the point-ndjson workload's graph
	if testing.Short() || raceEnabled {
		pointN = 2000
	}
	sets := workload.SetFamilyDB(42, 44, 1000, 2000)
	s, _ := sets.Relation("R")
	hub := relation.NewDatabase()
	hub.Add(workload.HubPairGraph(rand.New(rand.NewSource(55)), "R", 2000))
	h, _ := hub.Relation("R")
	fixtures := []fixture{
		{"E1 uniform triangle", mustInstanceOf(t, triangle, uniform), fractional.Cover{0.5, 0.5, 0.5},
			[]float64{1, math.Sqrt(float64(r.Len()))}},
		{"point triangle", mustInstanceOf(t, triangle, workload.SkewedTriangleDB(42, pointN/10, pointN)),
			fractional.Cover{1, 1, 1}, []float64{1, 8, 64}},
		{"E7 set intersection", mustInstanceOf(t, workload.SetIntersectionView(), sets), fractional.Cover{1, 1},
			[]float64{1, math.Pow(float64(s.Len()), 0.25), math.Sqrt(float64(s.Len()))}},
		{"E13 hub pair", mustInstanceOf(t, triangle, hub), fractional.Cover{0.5, 0.5, 0.5},
			[]float64{math.Pow(float64(h.Len()), 0.25)}},
	}
	for _, f := range fixtures {
		total := 0
		for _, tau := range f.taus {
			name := fmt.Sprintf("%s τ=%.2f", f.name, tau)
			walked, entries := walkMatchesPerNode(t, name, f.inst, f.u, tau)
			if !walked {
				t.Fatalf("%s: the build did not walk", name)
			}
			total += entries
		}
		if total == 0 {
			t.Fatalf("%s: no dictionary entries at any τ; the fixture does not exercise the walk", f.name)
		}
	}

	walkedCases, perNodeCases := 0, 0
	for seed := 0; seed < 120; seed++ {
		c := difftest.Generate(rand.New(rand.NewSource(int64(seed))))
		inst := mustInstanceOf(t, c.View, c.DB)
		for _, tau := range []float64{1, 2} {
			walked, _ := walkMatchesPerNode(t, fmt.Sprintf("difftest seed %d τ=%v", seed, tau), inst, allOnes(inst), tau)
			if walked {
				walkedCases++
			} else {
				perNodeCases++
			}
		}
	}
	if walkedCases == 0 || perNodeCases == 0 {
		t.Fatalf("difftest instances: %d walked builds, %d per-node; both paths must be exercised", walkedCases, perNodeCases)
	}
	t.Logf("difftest instances: %d walked builds, %d per-node", walkedCases, perNodeCases)
}
