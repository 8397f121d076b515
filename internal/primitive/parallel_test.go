package primitive

import (
	"math"
	"reflect"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/fractional"
	"cqrep/internal/join"
	"cqrep/internal/workload"
)

// TestParallelDictionaryDeterministic compares the structure built with one
// worker against eight workers at the lowest level of observability: the
// exact node list and the exact heavy-pair dictionary contents.
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
		name string
		fn   func(workers int) (*Structure, error)
	}{
		{"standard", func(w int) (*Structure, error) { return Build(inst, u, tau, Workers(w)) }},
		{"exhaustive", func(w int) (*Structure, error) { return BuildExhaustive(inst, u, tau, Workers(w)) }},
	} {
		t.Run(build.name, func(t *testing.T) {
			seq, err := build.fn(1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := build.fn(8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.Nodes(), par.Nodes()) {
				t.Fatal("tree nodes diverge across worker counts")
			}
			// The slot index is seeded per table; the valuations, their
			// ranges and their entries are the dictionary.
			a, b := &seq.dict, &par.dict
			if !reflect.DeepEqual(a.vals, b.vals) || !reflect.DeepEqual(a.off, b.off) ||
				!reflect.DeepEqual(a.ids, b.ids) || !reflect.DeepEqual(a.bits, b.bits) || len(a.slots) != len(b.slots) {
				t.Fatalf("dictionaries diverge: %d entries sequential vs %d parallel",
					seq.dict.live, par.dict.live)
			}
			if seq.dict.live == 0 {
				t.Fatal("fixture produced an empty dictionary; the test is vacuous — raise τ-pressure")
			}
		})
	}
}
