// Co-author graph analytics: the introduction's motivating application.
//
// DBLP-style data is a relation R(author, paper). Graph analytics wants the
// co-author graph V(x, y) = R(x,p), R(y,p) accessed by neighborhood:
// V^bf(x, y) — "given author x, enumerate co-authors y". Materializing the
// whole co-author graph can be quadratically larger than R; the compressed
// representation serves the same API from near-linear space.
//
// Run with: go run ./examples/coauthor
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"cqrep"
)

// coauthorDB generates an author–paper relation with power-law paper
// counts per author (a few prolific authors, a long tail), the shape of
// the DBLP workload.
func coauthorDB(seed int64, authors, papers, entries int) *cqrep.Database {
	rng := rand.New(rand.NewSource(seed))
	db := cqrep.NewDatabase()
	r := cqrep.NewRelation("R", 2)
	for k := 0; k < entries; k++ {
		// Inverse-CDF sampling of a Zipf-ish author distribution.
		a := cqrep.Value(float64(authors) * math.Pow(rng.Float64(), 3))
		p := cqrep.Value(rng.Intn(papers))
		r.MustInsert(a, p)
	}
	db.Add(r)
	return db
}

func main() {
	ctx := context.Background()
	const entries = 20000
	db := coauthorDB(7, entries/8, entries/4, entries)
	r, _ := db.Relation("R")
	fmt.Printf("author-paper pairs: %d\n", r.Len())

	// The full view carries the witnessing paper; projecting it away is the
	// co-author pair. (The library compiles boolean/projected views by
	// extending them to full views, Section 3.3.)
	view := cqrep.MustParse("V[bff](x, y, p) :- R(x, p), R(y, p)")

	compressed, err := cqrep.Compile(ctx, view, db)
	if err != nil {
		log.Fatal(err)
	}
	materialized, err := cqrep.Compile(ctx, view, db, cqrep.WithStrategy(cqrep.MaterializedStrategy))
	if err != nil {
		log.Fatal(err)
	}

	cs, ms := compressed.Stats(), materialized.Stats()
	fmt.Printf("compressed:   %8d entries, %10d bytes (strategy %v)\n", cs.Entries, cs.Bytes, cs.Strategy)
	fmt.Printf("materialized: %8d tuples,  %10d bytes\n", ms.Entries, ms.Bytes)

	// Neighborhood API: distinct co-authors of the busiest author.
	counts := map[cqrep.Value]int{}
	for i := 0; i < r.Len(); i++ {
		counts[r.Row(i)[0]]++
	}
	var busiest cqrep.Value
	best := -1
	for a, c := range counts {
		if c > best {
			busiest, best = a, c
		}
	}
	start := time.Now()
	coauthors := map[cqrep.Value]bool{}
	for t, err := range compressed.All2(ctx, cqrep.Tuple{busiest}) {
		if err != nil {
			log.Fatal(err)
		}
		if t[0] != busiest {
			coauthors[t[0]] = true // t = (y, p); project the paper away
		}
	}
	fmt.Printf("author %v wrote %d papers and has %d distinct co-authors (%.2fms)\n",
		busiest, best, len(coauthors), float64(time.Since(start).Microseconds())/1000)
}
