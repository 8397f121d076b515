package decomp

import (
	"math"
	"math/rand"
	"testing"

	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// TestTheorem2DelayEnvelope samples per-tuple work between consecutive
// outputs of the Theorem-2 iterator and checks it stays within a polylog
// multiple of |D|^h — the measurable form of the Theorem-2 delay claim.
func TestTheorem2DelayEnvelope(t *testing.T) {
	db := workload.PathDB(21, 6, 200, 14)
	_, inst := buildInstance(t, pathView6(), db)
	dec := figure2Decomposition()
	n := float64(db.Size())
	rng := rand.New(rand.NewSource(9))

	for _, delta := range [][]float64{
		{0, 0, 0, 0},
		{0, 1.0 / 3, 1.0 / 6, 0},
	} {
		s, err := Build(inst, dec, delta)
		if err != nil {
			t.Fatal(err)
		}
		h := dec.DeltaHeight(delta)
		worst := uint64(0)
		for probe := 0; probe < 30; probe++ {
			vb := relation.Tuple{
				relation.Value(rng.Intn(14)),
				relation.Value(rng.Intn(14)),
				relation.Value(rng.Intn(14)),
			}
			it := s.Query(vb)
			last := it.Ops()
			for {
				_, ok := it.Next()
				now := it.Ops()
				if now-last > worst {
					worst = now - last
				}
				last = now
				if !ok {
					break
				}
			}
		}
		logn := math.Log2(n + 2)
		envelope := uint64(16 * math.Pow(n, h) * logn * logn)
		if worst > envelope {
			t.Errorf("delta=%v: worst per-tuple ops %d exceeds envelope %d (|D|^h = %v)",
				delta, worst, envelope, math.Pow(n, h))
		}
	}
}
