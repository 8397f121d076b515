// Path queries with connex tree decompositions (Example 10).
//
// For the path view P_4^{bfffb}(x1..x5) — both endpoints bound, the middle
// free — a direct Theorem-1 structure needs a cover of weight 3, while a
// V_b-connex decomposition chains two small bags: {x1,x5} → {x1,x2,x4,x5} →
// {x2,x3,x4}. With a uniform delay assignment δ the space falls as
// |D|^{2-δ} while the delay grows as |D|^{2δ} — the tunable tradeoff of
// Theorem 2, all reachable through the public cqrep options.
//
// Run with: go run ./examples/pathchain
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"cqrep"
)

// pathDB generates the relations R1..R4 of the path join P_4(x1..x5) =
// R1(x1,x2), ..., R4(x4,x5), each with per random edges over a small
// domain.
func pathDB(seed int64, per, domain int) *cqrep.Database {
	rng := rand.New(rand.NewSource(seed))
	db := cqrep.NewDatabase()
	for i := 1; i <= 4; i++ {
		r := cqrep.NewRelation(fmt.Sprintf("R%d", i), 2)
		for k := 0; k < per; k++ {
			r.MustInsert(cqrep.Value(rng.Intn(domain)), cqrep.Value(rng.Intn(domain)))
		}
		db.Add(r)
	}
	return db
}

func main() {
	ctx := context.Background()
	// Scaled so the δ-sweep builds in seconds (Theorem-2 preprocessing is
	// super-linear in the per-relation size); raise per for the real curve.
	const per = 500
	db := pathDB(11, per, 45)
	view := cqrep.MustParse("P[bfffb](x1, x2, x3, x4, x5) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5)")
	fmt.Println("view:", view)

	dec := &cqrep.Decomposition{
		Bags:   [][]int{{0, 4}, {0, 1, 3, 4}, {1, 2, 3}},
		Parent: []int{-1, 0, 1},
	}
	for _, delta := range []float64{0, 0.15, 0.3} {
		rep, err := cqrep.Compile(ctx, view, db,
			cqrep.WithStrategy(cqrep.DecompositionStrategy),
			cqrep.WithDecomposition(dec),
			cqrep.WithDelta(cqrep.UniformDelta(dec, delta)))
		if err != nil {
			log.Fatal(err)
		}
		st := rep.Stats()
		fmt.Printf("delta=%.2f  width=%.3f  height=%.2f  entries=%8d  bytes=%10d\n",
			delta, st.Width, st.Height, st.Entries, st.Bytes)
	}

	// One access request: all x2,x3,x4 chains between two endpoint values.
	rep, err := cqrep.Compile(ctx, view, db,
		cqrep.WithStrategy(cqrep.DecompositionStrategy),
		cqrep.WithDecomposition(dec),
		cqrep.WithDelta(cqrep.UniformDelta(dec, 0.15)))
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	for a := cqrep.Value(0); a < 45 && count == 0; a++ {
		for b := cqrep.Value(0); b < 45; b++ {
			var sample cqrep.Tuple
			for t, err := range rep.All2(ctx, cqrep.Tuple{a, b}) {
				if err != nil {
					log.Fatal(err)
				}
				if count == 0 {
					sample = t
				}
				count++
			}
			if count > 0 {
				fmt.Printf("first non-empty request (x1=%v, x5=%v): %d paths, e.g. middle %v\n",
					a, b, count, sample)
				break
			}
		}
	}
	if count == 0 {
		fmt.Println("no 4-paths between sampled endpoints")
	}
}
