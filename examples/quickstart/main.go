// Quickstart: the mutual-friend view of Example 1 of the paper.
//
// We load a small symmetric friendship relation, compile the adorned view
// V^bfb(x, y, z) = R(x,y), R(y,z), R(z,x) — "given friends x and z, list
// their mutual friends y" — under three different strategies, and compare
// answers and footprints. Everything below uses only the public cqrep
// package: Compile with functional options, named bindings, and
// range-over-func enumeration.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"cqrep"
)

func main() {
	ctx := context.Background()

	// A small social network: edges are symmetric friendships.
	db := cqrep.NewDatabase()
	r := cqrep.NewRelation("R", 2)
	friends := [][2]cqrep.Value{
		{1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5}, {1, 5}, {3, 5},
	}
	for _, f := range friends {
		r.MustInsert(f[0], f[1])
		r.MustInsert(f[1], f[0])
	}
	db.Add(r)

	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	fmt.Println("view:", view)

	// Compile with the default strategy (Theorem-2 structure, constant
	// delay), with an explicit Theorem-1 threshold, and materialized.
	for _, c := range []struct {
		name string
		opts []cqrep.Option
	}{
		{"auto (Theorem 2)", nil},
		{"primitive tau=2 (Theorem 1)", []cqrep.Option{cqrep.WithTau(2)}},
		{"materialized", []cqrep.Option{cqrep.WithStrategy(cqrep.MaterializedStrategy)}},
	} {
		rep, err := cqrep.Compile(ctx, view, db, c.opts...)
		if err != nil {
			log.Fatal(err)
		}
		st := rep.Stats()
		fmt.Printf("\n[%s] strategy=%v entries=%d bytes=%d\n", c.name, st.Strategy, st.Entries, st.Bytes)

		// Access request: mutual friends of 1 and 3, enumerated with the
		// range-over-func API.
		vb, err := rep.Bind(map[string]cqrep.Value{"x": 1, "z": 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print("mutual friends of 1 and 3: ")
		for t, err := range rep.All2(ctx, vb) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%v ", t[0])
		}
		fmt.Println()
	}
}
