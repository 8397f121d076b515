package primitive

import (
	"fmt"
	"math"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/fractional"
	"cqrep/internal/join"
	"cqrep/internal/workload"
)

// TestParallelDictionaryDeterministic compares the structure built with one
// worker against two and eight workers at the lowest level of
// observability: the exact node list and the exact heavy-pair dictionary
// contents, for the standard build (which walks the candidate join once),
// the per-node build it replaces, and the exhaustive build.
func TestParallelDictionaryDeterministic(t *testing.T) {
	db := workload.SkewedTriangleDB(7, 120, 900)
	view := cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	nv, err := cq.Normalize(view, db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	u := fractional.Cover{1, 1, 1}
	tau := math.Sqrt(900) / 6

	for _, build := range []struct {
		name   string
		walked bool
		fn     func(workers int) (*Structure, error)
	}{
		{"standard", true, func(w int) (*Structure, error) { return Build(inst, u, tau, Workers(w)) }},
		{"per-node", false, func(w int) (*Structure, error) { return Build(inst, u, tau, Workers(w), perNodeBuild) }},
		{"exhaustive", false, func(w int) (*Structure, error) { return BuildExhaustive(inst, u, tau, Workers(w)) }},
	} {
		t.Run(build.name, func(t *testing.T) {
			seq, err := build.fn(1)
			if err != nil {
				t.Fatal(err)
			}
			if seq.walked != build.walked {
				t.Fatalf("walked = %v, want %v", seq.walked, build.walked)
			}
			if seq.dict.live == 0 {
				t.Fatal("fixture produced an empty dictionary; the test is vacuous — raise τ-pressure")
			}
			for _, w := range []int{2, 8} {
				par, err := build.fn(w)
				if err != nil {
					t.Fatal(err)
				}
				sameDictionary(t, fmt.Sprintf("1 vs %d workers", w), seq, par)
			}
		})
	}
}
