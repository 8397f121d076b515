package join

import (
	"math/rand"
	"testing"

	"cqrep/internal/interval"
	"cqrep/internal/relation"
)

// reusedEnumOps is the total Ops of TestEnumReusedAcrossBoxes's reused
// enumerator over its seed-fixed instances. Seeks that resume where the
// previous one ended find the same positions as searches from the start
// of the range and count the same, so this total must not move when the
// search inside a seek changes.
const reusedEnumOps = 52716

// TestEnumReusedAcrossBoxes drives one Enum through Rebind and Reset
// across the boxes of decomposed intervals, as Materialize and the
// primitive structure's dictionary build do, on random instances whose
// 64-value domain and 200+ rows per relation give runs and gallop strides
// longer than one. Every box must enumerate what a fresh Enum does, at the
// same per-box Ops (less the bound-valuation seeks, which Reset keeps),
// and every valuation's boxes together must enumerate NaiveJoin's answer.
func TestEnumReusedAcrossBoxes(t *testing.T) {
	const domain = 64
	rng := rand.New(rand.NewSource(45))
	var total uint64
	for trial, kept := 0, 0; kept < 24; trial++ {
		inst, err := randomInstance(rng, 2+rng.Intn(3), 1+rng.Intn(3), domain, 200+rng.Intn(200))
		if err != nil {
			t.Fatal(err)
		}
		if !joined(inst) {
			continue // a cross product of the domains: too many answers to check
		}
		kept++
		mu := inst.Mu
		reused := NewEnum(inst, nil, interval.Box{})
		for probe := 0; probe < 12; probe++ {
			vb := sampleBound(rng, inst, domain)
			// Even probes cover the whole free space, whose boxes then
			// partition the full answer; odd ones a random interval.
			iv := interval.Full(mu)
			if probe%2 == 1 {
				for i := 0; i < mu; i++ {
					iv.Lo[i] = relation.Value(rng.Intn(domain))
					iv.Hi[i] = relation.Value(rng.Intn(domain))
				}
				iv.LoInc, iv.HiInc = rng.Intn(2) == 0, rng.Intn(2) == 0
			}
			exists := rng.Intn(3) == 0 // stop each box at its first answer
			var all []relation.Tuple
			for i, box := range interval.Decompose(iv) {
				before := reused.Ops()
				if i == 0 {
					reused.Rebind(vb, box)
				} else {
					reused.Reset(box)
				}
				fresh := NewEnum(inst, vb, box)
				var got, want []relation.Tuple
				if exists {
					if g, w := reused.Exists(), fresh.Exists(); g != w {
						t.Fatalf("trial %d %s vb=%v box %d %v: reused Exists %v, fresh %v",
							trial, inst.NV.Source, vb, i, box, g, w)
					}
				} else {
					got, want = Drain(reused), Drain(fresh)
					all = append(all, got...)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %s vb=%v box %d %v: reused %d tuples, fresh %d",
						trial, inst.NV.Source, vb, i, box, len(got), len(want))
				}
				for j := range got {
					if !got[j].Equal(want[j]) {
						t.Fatalf("trial %d vb=%v box %v: tuple %d: reused %v, fresh %v", trial, vb, box, j, got[j], want[j])
					}
				}
				wantOps := fresh.Ops()
				if i > 0 && !box.EmptyRange() {
					// A fresh Enum seeks the bound valuation; Reset kept it.
					base := NewEnum(inst, vb, box)
					base.initBase()
					wantOps -= base.Ops()
				}
				if d := reused.Ops() - before; d != wantOps {
					t.Fatalf("trial %d %s vb=%v box %d %v: reused Enum took %d ops, fresh %d",
						trial, inst.NV.Source, vb, i, box, d, wantOps)
				}
			}
			if probe%2 == 0 && !exists {
				want := NaiveJoin(inst, vb, interval.Box{})
				if len(all) != len(want) {
					t.Fatalf("trial %d %s vb=%v: boxes enumerate %d tuples, NaiveJoin %d", trial, inst.NV.Source, vb, len(all), len(want))
				}
				for j := range all {
					if !all[j].Equal(want[j]) {
						t.Fatalf("trial %d vb=%v: tuple %d: %v, NaiveJoin %v", trial, vb, j, all[j], want[j])
					}
				}
			}
		}
		total += reused.Ops()
	}
	if total != reusedEnumOps {
		t.Fatalf("reused Enum took %d ops in all, want %d", total, reusedEnumOps)
	}
}

// sampleBound draws a bound valuation: one atom's bound columns from a row
// of it, so the valuation often has answers, and every other bound
// position from the domain.
func sampleBound(rng *rand.Rand, inst *Instance, domain int) relation.Tuple {
	vb := make(relation.Tuple, len(inst.NV.Bound))
	for i := range vb {
		vb[i] = relation.Value(rng.Intn(domain))
	}
	a := inst.Atoms[rng.Intn(len(inst.Atoms))]
	if n := a.Rel.Len(); n > 0 {
		row := a.Rel.Row(rng.Intn(n))
		for k, col := range a.BoundCols {
			vb[a.BoundPos[k]] = row[col]
		}
	}
	return vb
}

// joined reports whether the instance's atoms are connected and each holds
// two variables or more, so its answer is bounded by joins, not by a cross
// product of the 64-value domains.
func joined(inst *Instance) bool {
	atoms := make([]int, len(inst.Atoms))
	for ai, a := range inst.Atoms {
		if len(a.Vars) < 2 {
			return false
		}
		atoms[ai] = ai
	}
	return len(connectedComponents(inst, atoms)) == 1
}
