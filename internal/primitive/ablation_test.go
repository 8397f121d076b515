package primitive

import (
	"math/rand"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/fractional"
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// TestDropDictionaryStillCorrect: the dictionary is a performance device;
// removing it must leave answers exactly intact (every node reads ⊥ and is
// evaluated from scratch).
func TestDropDictionaryStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(t, rng, 2+rng.Intn(3), 1+rng.Intn(3), 4, 2+rng.Intn(12))
		s, err := Build(inst, allOnes(inst), 2)
		if err != nil {
			t.Fatal(err)
		}
		s.DropDictionary()
		for probe := 0; probe < 5; probe++ {
			vb := make(relation.Tuple, len(inst.NV.Bound))
			for i := range vb {
				vb[i] = relation.Value(rng.Intn(4))
			}
			got := s.Query(vb).Drain()
			want := join.NaiveJoin(inst, vb, interval.Box{})
			if len(got) != len(want) {
				t.Fatalf("trial %d vb=%v: %d vs %d", trial, vb, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d vb=%v tuple %d: %v vs %v", trial, vb, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBuildExhaustiveCorrectAndCoversEmptyHeavy: the exhaustive dictionary
// answers identically to the Prop-13 one, and additionally stores the
// emptiness bit for a heavy valuation whose E_Vb join is empty (two large
// disjoint neighborhoods).
func TestBuildExhaustiveCorrectAndCoversEmptyHeavy(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	const hub1, hub2 = 1, 2
	for i := relation.Value(0); i < 40; i++ {
		a := 10 + 2*i
		b := 11 + 2*i
		r.MustInsert(hub1, a)
		r.MustInsert(a, hub1)
		r.MustInsert(hub2, b)
		r.MustInsert(b, hub2)
	}
	r.MustInsert(hub1, hub2)
	r.MustInsert(hub2, hub1)
	db.Add(r)
	nv, err := cqNormalize(t, db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := join.NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	u := fractional.Cover{0.5, 0.5, 0.5}
	tau := 4.0
	ex, err := BuildExhaustive(inst, u, tau)
	if err != nil {
		t.Fatal(err)
	}
	p13, err := Build(inst, u, tau)
	if err != nil {
		t.Fatal(err)
	}
	hub := relation.Tuple{hub1, hub2}
	// Same (empty) answer either way.
	if got := ex.Query(hub).Drain(); len(got) != 0 {
		t.Fatalf("hub pair has no mutual friends, got %v", got)
	}
	if got := p13.Query(hub).Drain(); len(got) != 0 {
		t.Fatalf("hub pair has no mutual friends, got %v", got)
	}
	// The exhaustive dictionary knows the emptiness at the root; Prop-13
	// does not (the E_Vb join of the pair is empty).
	rootID := ex.Nodes()[0].ID
	if bit, ok := ex.DictBit(rootID, hub); !ok || bit != 0 {
		t.Errorf("exhaustive root bit = %v/%v, want stored 0", bit, ok)
	}
	if _, ok := p13.DictBit(p13.Nodes()[0].ID, hub); ok {
		t.Log("note: Prop-13 dictionary unexpectedly stores the hub pair (acceptable but unexpected)")
	}
	// And on random valuations both agree with the oracle.
	rng := rand.New(rand.NewSource(8))
	for probe := 0; probe < 20; probe++ {
		vb := relation.Tuple{relation.Value(rng.Intn(40)), relation.Value(rng.Intn(40))}
		want := join.NaiveJoin(inst, vb, interval.Box{})
		for name, s := range map[string]*Structure{"exhaustive": ex, "prop13": p13} {
			got := s.Query(vb).Drain()
			if len(got) != len(want) {
				t.Fatalf("%s vb=%v: %d vs %d", name, vb, len(got), len(want))
			}
		}
	}
}

// cqNormalize builds the mutual-friend view over the database.
func cqNormalize(t *testing.T, db *relation.Database) (*cq.NormalizedView, error) {
	t.Helper()
	return cq.Normalize(cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
}

// TestRefineOnesFlipsEntries: RefineOnes must flip exactly the 1-entries
// rejected by the predicate and leave 0-entries untouched.
func TestRefineOnesFlipsEntries(t *testing.T) {
	inst := runningExample(t)
	s, err := Build(inst, fractional.Cover{1, 1, 1}, 3.9)
	if err != nil {
		t.Fatal(err)
	}
	ones, zeros := 0, 0
	for _, bit := range s.dict.bits {
		if bit == 1 {
			ones++
		} else {
			zeros++
		}
	}
	if ones == 0 {
		t.Fatal("fixture must have 1-entries")
	}
	// Reject everything: all 1s become 0s.
	s.RefineOnes(func(id int32, iv interval.Interval, vb relation.Tuple) bool {
		// The callback must receive a valid node interval and a decodable
		// valuation of the right arity.
		if len(vb) != 3 {
			t.Fatalf("callback vb arity %d", len(vb))
		}
		if iv.Mu() != 3 {
			t.Fatalf("callback interval dimension %d", iv.Mu())
		}
		return false
	})
	for _, bit := range s.dict.bits {
		if bit != 0 {
			t.Fatal("entry not flipped to 0")
		}
	}
	if got := s.dict.live; got != ones+zeros {
		t.Fatalf("entry count changed: %d vs %d", got, ones+zeros)
	}
	// After total rejection every answer must be empty via the dictionary
	// fast path... but ⊥ leaves still enumerate: a query on a heavy
	// valuation must now return nothing from 0-marked subtrees. The root is
	// marked 0 for (1,1,1), so the answer collapses to empty.
	if got := s.Query(relation.Tuple{1, 1, 1}).Drain(); len(got) != 0 {
		t.Fatalf("after total refinement, heavy query returned %v", got)
	}
	// Light valuations (no dictionary entry) are unaffected.
	light := relation.Tuple{3, 2, 2}
	want := join.NaiveJoin(inst, light, interval.Box{})
	if got := s.Query(light).Drain(); len(got) != len(want) {
		t.Fatalf("light valuation affected by refinement: %v vs %v", got, want)
	}
}

// TestRefineOnesKeepAll: accepting every entry is a no-op.
func TestRefineOnesKeepAll(t *testing.T) {
	inst := runningExample(t)
	s, err := Build(inst, fractional.Cover{1, 1, 1}, 3.9)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Query(relation.Tuple{1, 1, 1}).Drain()
	s.RefineOnes(func(int32, interval.Interval, relation.Tuple) bool { return true })
	after := s.Query(relation.Tuple{1, 1, 1}).Drain()
	if len(before) != len(after) {
		t.Fatalf("keep-all refinement changed answers: %d vs %d", len(before), len(after))
	}
}

// TestNodeInterval exposes tree intervals consistently with Nodes().
func TestNodeInterval(t *testing.T) {
	inst := runningExample(t)
	s, err := Build(inst, fractional.Cover{1, 1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Nodes() {
		iv := s.NodeInterval(n.ID)
		if iv.String() != n.Interval.String() {
			t.Fatalf("NodeInterval(%d) = %v, Nodes() says %v", n.ID, iv, n.Interval)
		}
	}
}
