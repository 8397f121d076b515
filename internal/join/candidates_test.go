package join

import (
	"math/rand"
	"sync"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/interval"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// candidateBoxes returns the whole free space and random canonical boxes
// over mu free positions with values around [0, domain): pinned prefixes,
// ranges with open and closed ends (some of them empty), and both at once.
func candidateBoxes(rng *rand.Rand, mu, domain int) []interval.Box {
	boxes := []interval.Box{{}}
	for i := 0; i < 6 && mu > 0; i++ {
		b := interval.Box{Prefix: make(relation.Tuple, rng.Intn(mu+1))}
		for j := range b.Prefix {
			b.Prefix[j] = relation.Value(rng.Intn(domain))
		}
		if len(b.Prefix) < mu && rng.Intn(3) > 0 {
			b.HasRange = true
			b.Lo, b.Hi = relation.Value(rng.Intn(domain+1)-1), relation.Value(rng.Intn(domain+1))
			b.LoInc, b.HiInc = rng.Intn(2) == 0, rng.Intn(2) == 0
		}
		boxes = append(boxes, b)
	}
	return boxes
}

// TestBoundWitnessesMatchNaive pins BoundWitnesses' stream on the random
// instances of TestBoundCandidatesMatchesProposition13: within each box it
// emits every answer of the E_Vb join exactly once, as (ft, vb), in the
// order of ft then vb.
func TestBoundWitnessesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	boxRng := rand.New(rand.NewSource(29))
	witnessed, answers := 0, 0
	for trial := 0; trial < 80; trial++ {
		inst, err := randomInstance(rng, 2+rng.Intn(3), 1+rng.Intn(3), 3, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		if len(inst.NV.Bound) == 0 || !Witnessed(inst) {
			continue
		}
		witnessed++
		for _, box := range candidateBoxes(boxRng, inst.Mu, 3) {
			var got []relation.Tuple
			BoundWitnesses(inst, box, func(ft, vb relation.Tuple) bool {
				got = append(got, append(ft.Clone(), vb...))
				return true
			})
			want := naiveBoundJoin(inst, box)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s box %v: %d witnesses %v, want %d %v",
					trial, inst.NV.Source, box, len(got), got, len(want), want)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d %s box %v: witness %d is %v, want %v", trial, inst.NV.Source, box, i, got[i], want[i])
				}
			}
			answers += len(got)
		}
	}
	if witnessed == 0 || answers == 0 {
		t.Fatalf("%d witnessed instances, %d witnesses: the stream went unchecked", witnessed, answers)
	}
	t.Logf("%d witnessed instances, %d witnesses", witnessed, answers)
}

// naiveExhaustive lists, in order, the bound valuations over [0, domain)
// for which every bound-touching atom has a row that agrees with the
// valuation on its bound columns and lies inside the box.
func naiveExhaustive(inst *Instance, box interval.Box, domain int) []relation.Tuple {
	var out []relation.Tuple
	vb := make(relation.Tuple, len(inst.NV.Bound))
	compatible := func(a *AtomInfo) bool {
		for r, n := 0, a.Rel.Len(); r < n; r++ {
			row, ok := a.Rel.Row(r), true
			for k, col := range a.BoundCols {
				ok = ok && row[col] == vb[a.BoundPos[k]]
			}
			if ok && rowInBox(a, row, box) {
				return true
			}
		}
		return false
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vb) {
			for _, a := range inst.Atoms {
				if len(a.BoundCols) > 0 && !compatible(a) {
					return
				}
			}
			out = append(out, vb.Clone())
			return
		}
		for v := 0; v < domain; v++ {
			vb[i] = relation.Value(v)
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// TestBoundCandidatesExhaustiveMatchesNaive pins the exhaustive candidate
// stream to its definition, in bound-valuation order.
func TestBoundCandidatesExhaustiveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	boxRng := rand.New(rand.NewSource(31))
	emitted := 0
	for trial := 0; trial < 80; trial++ {
		inst, err := randomInstance(rng, 2+rng.Intn(3), 1+rng.Intn(3), 3, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, box := range candidateBoxes(boxRng, inst.Mu, 3) {
			var got []relation.Tuple
			BoundCandidatesExhaustive(inst, box, func(vb relation.Tuple) bool {
				got = append(got, vb.Clone())
				return true
			})
			want := naiveExhaustive(inst, box, 3)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s box %v: %d valuations %v, want %d %v",
					trial, inst.NV.Source, box, len(got), got, len(want), want)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d %s box %v: valuation %d is %v, want %v", trial, inst.NV.Source, box, i, got[i], want[i])
				}
			}
			emitted += len(got)
		}
	}
	if emitted == 0 {
		t.Fatal("no valuation emitted: the stream went unchecked")
	}
	t.Logf("%d valuations", emitted)
}

// TestBoundCandidatesEarlyStop verifies the emit-false abort of every
// candidate stream: the dictionary walk's cancellation relies on it.
func TestBoundCandidatesEarlyStop(t *testing.T) {
	inst := runningExampleInstance(t)
	if !Witnessed(inst) {
		t.Fatal("the running example's E_Vb is one component holding every variable")
	}
	streams := []struct {
		name string
		run  func(emit func() bool)
	}{
		{"candidates", func(emit func() bool) {
			BoundCandidates(inst, interval.Box{}, func(relation.Tuple) bool { return emit() })
		}},
		{"witnesses", func(emit func() bool) {
			BoundWitnesses(inst, interval.Box{}, func(_, _ relation.Tuple) bool { return emit() })
		}},
		{"exhaustive", func(emit func() bool) {
			BoundCandidatesExhaustive(inst, interval.Box{}, func(relation.Tuple) bool { return emit() })
		}},
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			count := 0
			s.run(func() bool {
				count++
				return count < 2
			})
			if count != 2 {
				t.Errorf("enumeration did not stop after emit returned false: %d", count)
			}
		})
	}
}

// TestCandidateStreamsFirstReadsRace has eight goroutines start the three
// candidate streams on one fresh instance at once (run it under -race):
// the instance builds its candidate orders once, and every goroutine of a
// stream reads the same number of answers.
func TestCandidateStreamsFirstReadsRace(t *testing.T) {
	inst := runningExampleInstance(t)
	const readers = 8
	counts := make([]int, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				BoundWitnesses(inst, interval.Box{}, func(_, _ relation.Tuple) bool { counts[g]++; return true })
			case 1:
				BoundCandidates(inst, interval.Box{}, func(relation.Tuple) bool { counts[g]++; return true })
			default:
				BoundCandidatesExhaustive(inst, interval.Box{}, func(relation.Tuple) bool { counts[g]++; return true })
			}
		}(g)
	}
	wg.Wait()
	for g := 3; g < readers; g++ {
		if counts[g] != counts[g%3] {
			t.Errorf("reader %d read %d answers, reader %d of the same stream %d", g, counts[g], g%3, counts[g%3])
		}
	}
}

// BenchmarkCandidateJoin prices one walk of a candidate stream over the
// whole free space: BoundWitnesses over the point-ndjson fixture's
// triangle V[bfb] on SkewedTriangleDB(42, 2000, 20000), and BoundCandidates
// over the path view P_4^{bfffb}, whose E_Vb is two components, on
// PathDB(11, 4, 1000, 60). The instance and its FreeFirst indexes are
// built before the timer starts.
func BenchmarkCandidateJoin(b *testing.B) {
	for _, c := range []struct {
		name string
		view *cq.View
		db   *relation.Database
		walk func(inst *Instance) (n int)
	}{
		{"witnesses/triangle", cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), workload.SkewedTriangleDB(42, 2000, 20000),
			func(inst *Instance) (n int) {
				BoundWitnesses(inst, interval.Box{}, func(_, _ relation.Tuple) bool { n++; return true })
				return n
			}},
		{"candidates/path4", workload.PathView(4), workload.PathDB(11, 4, 1000, 60),
			func(inst *Instance) (n int) {
				BoundCandidates(inst, interval.Box{}, func(relation.Tuple) bool { n++; return true })
				return n
			}},
	} {
		b.Run(c.name, func(b *testing.B) {
			nv, err := cq.Normalize(c.view, c.db)
			if err != nil {
				b.Fatal(err)
			}
			inst, err := NewInstance(nv)
			if err != nil {
				b.Fatal(err)
			}
			inst.Complete()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := c.walk(inst); i == 0 {
					b.ReportMetric(float64(n), "answers")
				}
			}
		})
	}
}
