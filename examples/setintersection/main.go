// Fast set intersection: the Cohen–Porat special case (Section 3.1).
//
// Given a family of sets as a membership relation R(set, element), the
// adorned view S^bbf(x1, x2, z) = R(x1,z), R(x2,z) answers "enumerate the
// intersection of sets x1 and x2". The Theorem-1 structure with the
// all-ones cover has slack α = 2, giving the classic space O~(N²/τ²),
// time O~(τ) tradeoff of [13]. This example sweeps τ.
//
// Run with: go run ./examples/setintersection
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"cqrep"
)

// setFamilyDB generates a membership relation R(set, element) with
// power-law element popularity, so sets overlap on hot elements.
func setFamilyDB(seed int64, numSets, universe, totalSize int) *cqrep.Database {
	rng := rand.New(rand.NewSource(seed))
	db := cqrep.NewDatabase()
	r := cqrep.NewRelation("R", 2)
	for k := 0; k < totalSize; k++ {
		s := cqrep.Value(rng.Intn(numSets))
		e := cqrep.Value(float64(universe) * math.Pow(rng.Float64(), 2.5))
		r.MustInsert(s, e)
	}
	db.Add(r)
	return db
}

func main() {
	ctx := context.Background()
	const totalSize = 12000
	const numSets = 110
	db := setFamilyDB(3, numSets, totalSize/2, totalSize)
	r, _ := db.Relation("R")
	n := float64(r.Len())
	fmt.Printf("membership pairs: %d across %d sets\n", r.Len(), numSets)

	view := cqrep.MustParse("S[bbf](x1, x2, z) :- R(x1, z), R(x2, z)")
	for _, tau := range []float64{1, math.Sqrt(math.Sqrt(n)), math.Sqrt(n)} {
		rep, err := cqrep.Compile(ctx, view, db,
			cqrep.WithCover(cqrep.Cover{1, 1}), cqrep.WithTau(tau))
		if err != nil {
			log.Fatal(err)
		}
		st := rep.Stats()
		fmt.Printf("tau=%8.1f  alpha=%v  entries=%8d  bytes=%10d  model N^2/tau^2=%.0f\n",
			tau, st.Alpha, st.Entries, st.Bytes, n*n/(tau*tau))
	}

	// Intersect two concrete sets through the named-binding API.
	rep, err := cqrep.Compile(ctx, view, db, cqrep.WithCover(cqrep.Cover{1, 1}),
		cqrep.WithTau(math.Sqrt(n)))
	if err != nil {
		log.Fatal(err)
	}
	vb, err := rep.Bind(map[string]cqrep.Value{"x1": 1, "x2": 2})
	if err != nil {
		log.Fatal(err)
	}
	var out []cqrep.Value
	for t, err := range rep.All2(ctx, vb) {
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, t[0])
	}
	fmt.Printf("|set1 ∩ set2| = %d", len(out))
	if len(out) > 0 {
		fmt.Printf(" (first few:")
		for i, v := range out {
			if i == 5 {
				break
			}
			fmt.Printf(" %v", v)
		}
		fmt.Print(")")
	}
	fmt.Println()
}
