// Package experiments regenerates every table and figure-shaped claim of
// the paper as a reproducible experiment (the per-experiment index lives in
// DESIGN.md; results are recorded in EXPERIMENTS.md). Each experiment
// returns rendered tables so that cmd/cqbench and the root benchmarks share
// one implementation.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"cqrep/internal/bench"
	"cqrep/internal/cq"
	"cqrep/internal/fractional"
	"cqrep/internal/join"
	"cqrep/internal/primitive"
	"cqrep/internal/relation"
)

// mustInstance normalizes a view against a database, panicking on
// programmer error (experiment fixtures are static).
func mustInstance(view *cq.View, db *relation.Database) (*cq.NormalizedView, *join.Instance) {
	nv, err := cq.Normalize(view, db)
	if err != nil {
		panic(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		panic(err)
	}
	return nv, inst
}

// sampleVbs draws k bound valuations from the instance's active domains so
// that a healthy fraction of requests have non-empty answers.
func sampleVbs(rng *rand.Rand, inst *join.Instance, k int) []relation.Tuple {
	out := make([]relation.Tuple, 0, k)
	for i := 0; i < k; i++ {
		vb := make(relation.Tuple, len(inst.NV.Bound))
		for j := range vb {
			dom := inst.BoundDomain(j)
			if len(dom) == 0 {
				vb[j] = 0
				continue
			}
			vb[j] = dom[rng.Intn(len(dom))]
		}
		out = append(out, vb)
	}
	return out
}

// measureRequests runs every valuation through fresh iterators from mk and
// aggregates delays.
func measureRequests(vbs []relation.Tuple, mk func(vb relation.Tuple) bench.Iterator) bench.Aggregate {
	var agg bench.Aggregate
	for _, vb := range vbs {
		agg.Add(bench.Measure(mk(vb)))
	}
	return agg
}

// buildPrimitive builds a Theorem-1 structure, panicking on fixture errors.
func buildPrimitive(inst *join.Instance, u fractional.Cover, tau float64) *primitive.Structure {
	s, err := primitive.Build(inst, u, tau)
	if err != nil {
		panic(err)
	}
	return s
}

// fmtExp renders x as an exponent of base n ("N^0.50").
func fmtExp(n int, x float64) string {
	if x <= 0 {
		return "1"
	}
	return fmt.Sprintf("N^%.2f", math.Log(x)/math.Log(float64(n)))
}

// tauSweep returns τ values {1, N^1/4, N^1/2, N^3/4} for a data size n.
func tauSweep(n int) []float64 {
	f := float64(n)
	return []float64{1, math.Pow(f, 0.25), math.Pow(f, 0.5), math.Pow(f, 0.75)}
}
