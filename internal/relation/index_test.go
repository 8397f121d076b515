package relation

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestIndexSignatureWideArity: the index cache key tells every column
// apart, so on a 257-column relation Index(256) is not the cached
// Index(0). A key of one byte per column made the two collide.
func TestIndexSignatureWideArity(t *testing.T) {
	const arity = 257
	r := NewRelation("W", arity)
	a, b := make(Tuple, arity), make(Tuple, arity)
	a[0], a[256] = 1, 9
	b[0], b[256] = 2, 5
	r.MustInsert(a...)
	r.MustInsert(b...)
	by0, by256 := r.Index(0), r.Index(256)
	if by0 == by256 {
		t.Fatal("Index(256) returned the cached Index(0)")
	}
	if got := by256.Tuple(0)[256]; got != 5 {
		t.Errorf("Index(256) first row has column 256 = %d, want 5", got)
	}
	if got := by0.Tuple(0)[0]; got != 1 {
		t.Errorf("Index(0) first row has column 0 = %d, want 1", got)
	}
	if r.Index(1, 0) == r.Index(256) || r.Index(0, 1) == r.Index(1) {
		t.Error("distinct column lists share a cached index")
	}
}

// columnOrders lists every sequence of distinct columns of an arity, the
// empty one included: every argument list Index accepts.
func columnOrders(arity int) [][]int {
	out := [][]int{{}}
	for i := 0; i < len(out); i++ {
		prefix := out[i]
		for c := 0; c < arity; c++ {
			if !slices.Contains(prefix, c) {
				out = append(out, append(slices.Clone(prefix), c))
			}
		}
	}
	return out
}

// referenceOrder sorts a copy of the distinct tuples by the full column
// order Index promises: the requested columns, then the rest ascending.
func referenceOrder(tuples []Tuple, cols []int, arity int) []Tuple {
	full := slices.Clone(cols)
	for c := 0; c < arity; c++ {
		if !slices.Contains(full, c) {
			full = append(full, c)
		}
	}
	out := slices.Clone(tuples)
	slices.SortFunc(out, func(a, b Tuple) int {
		for _, c := range full {
			if d := cmp.Compare(a[c], b[c]); d != 0 {
				return d
			}
		}
		return 0
	})
	return out
}

// TestIdentityIndexIsRowOrder: the index in column order 0..a-1, built
// without a sort, lists the rows in storage order and equals a reference
// sort; every other order still equals its reference sort. Rows come in
// random and in sorted order, and again after an Insert and a Delete.
func TestIdentityIndexIsRowOrder(t *testing.T) {
	// 1 + 3 + 3·2 + 3·2·1 sequences of distinct columns out of three.
	if n := len(columnOrders(3)); n != 16 {
		t.Fatalf("columnOrders(3) has %d entries, want 16", n)
	}
	rng := rand.New(rand.NewSource(53))
	for arity := 1; arity <= 3; arity++ {
		for _, sorted := range []bool{false, true} {
			// The reference tuple set, keyed by the tuple padded to three.
			set := map[[3]Value]Tuple{}
			key := func(tup Tuple) [3]Value { return [3]Value(append(slices.Clone(tup), make(Tuple, 3-arity)...)) }
			for i := 0; i < 60; i++ {
				tup := make(Tuple, arity)
				for c := range tup {
					tup[c] = Value(rng.Intn(7) - 3)
				}
				set[key(tup)] = tup
			}
			var tuples []Tuple
			for _, tup := range set {
				tuples = append(tuples, tup)
			}
			if sorted {
				// Strictly increasing: dedupe keeps the slab as it is.
				slices.SortFunc(tuples, Tuple.Compare)
			} else {
				tuples = append(tuples, tuples[:len(tuples)/3]...)
				rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
			}
			r := NewRelation("R", arity)
			for _, tup := range tuples {
				r.MustInsert(tup...)
			}
			check := func(stage string) {
				t.Helper()
				var want []Tuple
				for _, tup := range set {
					want = append(want, tup)
				}
				identity := make([]int, arity)
				for c := range identity {
					identity[c] = c
				}
				if ix := r.Index(identity...); !slices.Equal(ix.perm, identityPerm(len(want))) {
					t.Fatalf("arity %d sorted=%v %s: Index%v is not the row order", arity, sorted, stage, identity)
				}
				for _, cols := range columnOrders(arity) {
					ix := r.Index(cols...)
					ref := referenceOrder(want, cols, arity)
					if ix.Len() != len(ref) {
						t.Fatalf("arity %d sorted=%v %s: Index%v has %d rows, want %d", arity, sorted, stage, cols, ix.Len(), len(ref))
					}
					for pos := range ref {
						if !ix.Tuple(pos).Equal(ref[pos]) {
							t.Fatalf("arity %d sorted=%v %s: Index%v row %d = %v, want %v", arity, sorted, stage, cols, pos, ix.Tuple(pos), ref[pos])
						}
					}
				}
			}
			check("after build")
			extra := make(Tuple, arity)
			for c := range extra {
				extra[c] = Value(-10 - c)
			}
			r.MustInsert(extra...)
			set[key(extra)] = extra
			check("after Insert")
			gone := tuples[len(tuples)/2]
			if !r.Delete(gone) {
				t.Fatal("Delete of a present tuple reported false")
			}
			delete(set, key(gone))
			check("after Delete")
		}
	}
}

func identityPerm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}
