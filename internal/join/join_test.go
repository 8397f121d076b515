package join

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cqrep/internal/cq"
	"cqrep/internal/fractional"
	"cqrep/internal/interval"
	"cqrep/internal/relation"
)

// Drain collects every remaining tuple from an enumerator.
func Drain(e *Enum) []relation.Tuple {
	var out []relation.Tuple
	for {
		t, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// runningExampleDB builds the instance of Example 13 of the paper.
func runningExampleDB() *relation.Database {
	db := relation.NewDatabase()
	r1 := relation.NewRelation("R1", 3) // (w1, x, y)
	for _, t := range [][3]relation.Value{{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {3, 1, 1}} {
		r1.MustInsert(t[0], t[1], t[2])
	}
	r2 := relation.NewRelation("R2", 3) // (w2, y, z)
	for _, t := range [][3]relation.Value{{1, 1, 2}, {1, 2, 1}, {1, 2, 2}, {2, 1, 1}, {2, 1, 2}} {
		r2.MustInsert(t[0], t[1], t[2])
	}
	r3 := relation.NewRelation("R3", 3) // (w3, x, z)
	for _, t := range [][3]relation.Value{{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {2, 1, 2}} {
		r3.MustInsert(t[0], t[1], t[2])
	}
	db.Add(r1)
	db.Add(r2)
	db.Add(r3)
	return db
}

func runningExampleInstance(t *testing.T) *Instance {
	t.Helper()
	v := cq.MustParse("Q[fffbbb](x, y, z, w1, w2, w3) :- R1(w1, x, y), R2(w2, y, z), R3(w3, x, z)")
	nv, err := cq.Normalize(v, runningExampleDB())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestExample13Counts reproduces the exact T values computed in Example 13
// of the paper over its explicit box decomposition of the root interval.
func TestExample13Counts(t *testing.T) {
	inst := runningExampleInstance(t)
	est, err := NewEstimator(inst, fractional.Cover{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Alpha != 2 {
		t.Fatalf("slack = %v, want 2", est.Alpha)
	}

	// The paper's boxes for I(r) = [⟨1,1,1⟩, ⟨2,2,2⟩] over domain {1,2}.
	bl3 := interval.Box{Prefix: relation.Tuple{1, 1}, HasRange: true, Lo: 1, LoInc: true, Hi: 2, HiInc: true}
	bl2 := interval.Box{Prefix: relation.Tuple{1}, HasRange: true, Lo: 1, LoInc: false, Hi: 2, HiInc: true}
	br2 := interval.Box{Prefix: relation.Tuple{2}, HasRange: true, Lo: 1, LoInc: true, Hi: 2, HiInc: false}
	br3 := interval.Box{Prefix: relation.Tuple{2, 2}, HasRange: true, Lo: 1, LoInc: true, Hi: 2, HiInc: true}

	// T(I(r)) = √(3·3·4) + √(1·2·4) + √(1·3·1) + 0 ≈ 10.56.
	got := est.TBox(bl3) + est.TBox(bl2) + est.TBox(br2) + est.TBox(br3)
	want := math.Sqrt(36) + math.Sqrt(8) + math.Sqrt(3)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("T(I(r)) = %v, want %v (≈10.56)", got, want)
	}
	if math.Abs(want-10.56) > 0.01 {
		t.Errorf("paper check: %v should be ≈10.56", want)
	}

	// T(v_b, I(r)) for v_b = (1,1,1) is √2 + 2 + 1 ≈ 4.414.
	vb := relation.Tuple{1, 1, 1}
	gotV := est.TBoxBound(vb, bl3) + est.TBoxBound(vb, bl2) + est.TBoxBound(vb, br2) + est.TBoxBound(vb, br3)
	wantV := math.Sqrt2 + 2 + 1
	if math.Abs(gotV-wantV) > 1e-9 {
		t.Errorf("T(vb, I(r)) = %v, want %v (≈4.414)", gotV, wantV)
	}
	// The same sum from the valuation's rows, sought once.
	rows := est.Rows(nil, vb)
	if gotR := est.TBoxRows(rows, bl3) + est.TBoxRows(rows, bl2) + est.TBoxRows(rows, br2) + est.TBoxRows(rows, br3); gotR != gotV {
		t.Errorf("T(vb, I(r)) from rows = %v, from TBoxBound %v", gotR, gotV)
	}
}

// TestExample14SplitCost checks T(I≺) ≈ 2.44 for the left split interval of
// Example 14, via our own decomposition of the unit interval.
func TestExample14SplitCost(t *testing.T) {
	inst := runningExampleInstance(t)
	est, err := NewEstimator(inst, fractional.Cover{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	got := est.TInterval(interval.Unit(relation.Tuple{1, 1, 1}))
	if math.Abs(got-math.Sqrt(6)) > 1e-9 {
		t.Errorf("T([111,111]) = %v, want √6 ≈ 2.449", got)
	}
}

func TestEnumRunningExample(t *testing.T) {
	inst := runningExampleInstance(t)
	vb := relation.Tuple{1, 1, 1}
	full := interval.Full(3)
	for _, box := range interval.Decompose(full) {
		got := Drain(NewEnum(inst, vb, box))
		want := NaiveJoin(inst, vb, box)
		if len(got) != len(want) {
			t.Fatalf("box %v: got %d tuples, want %d", box, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("box %v tuple %d: got %v, want %v", box, i, got[i], want[i])
			}
		}
	}
}

func TestEnumLexOrderAndNoDuplicates(t *testing.T) {
	inst := runningExampleInstance(t)
	for _, vb := range []relation.Tuple{{1, 1, 1}, {1, 2, 1}, {2, 1, 2}, {3, 2, 1}, {9, 9, 9}} {
		var all []relation.Tuple
		for _, box := range interval.Decompose(interval.Full(3)) {
			all = append(all, Drain(NewEnum(inst, vb, box))...)
		}
		for i := 1; i < len(all); i++ {
			if !all[i-1].Less(all[i]) {
				t.Fatalf("vb %v: output not strictly increasing at %d: %v then %v", vb, i, all[i-1], all[i])
			}
		}
	}
}

func TestEnumExistsAndOps(t *testing.T) {
	inst := runningExampleInstance(t)
	e := NewEnum(inst, relation.Tuple{1, 1, 1}, interval.UnitBox(relation.Tuple{1, 1, 2}))
	if !e.Exists() {
		t.Error("tuple (1,1,2) joins under vb=(1,1,1)")
	}
	if e.Ops() == 0 {
		t.Error("ops counter must advance")
	}
	e2 := NewEnum(inst, relation.Tuple{9, 9, 9}, interval.UnitBox(relation.Tuple{1, 1, 2}))
	if e2.Exists() {
		t.Error("vb=(9,9,9) matches nothing")
	}
}

func TestEnumEmptyBox(t *testing.T) {
	inst := runningExampleInstance(t)
	box := interval.Box{HasRange: true, Lo: 5, Hi: 3, LoInc: true, HiInc: true}
	if got := Drain(NewEnum(inst, relation.Tuple{1, 1, 1}, box)); len(got) != 0 {
		t.Errorf("empty box returned %v", got)
	}
}

func TestCheckAllBoundAtoms(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	s := relation.NewRelation("S", 2)
	s.MustInsert(2, 5)
	db.Add(r)
	db.Add(s)
	v := cq.MustParse("Q[bbf](x, y, z) :- R(x, y), S(y, z)")
	nv, err := cq.Normalize(v, db)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(nv)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.CheckAllBoundAtoms(relation.Tuple{1, 2}) {
		t.Error("R(1,2) exists; check must pass")
	}
	if inst.CheckAllBoundAtoms(relation.Tuple{1, 3}) {
		t.Error("R(1,3) missing; check must fail")
	}
}

// randomInstance builds a random full adorned view over nVars variables and
// nAtoms atoms with values in [0, domain).
func randomInstance(rng *rand.Rand, nVars, nAtoms, domain, rowsPerAtom int) (*Instance, error) {
	names := make([]string, nVars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	db := relation.NewDatabase()
	view := &cq.View{Name: "Q"}
	// Random adornment.
	perm := rng.Perm(nVars)
	nFree := 1 + rng.Intn(nVars)
	isFree := make(map[int]bool)
	for _, p := range perm[:nFree] {
		isFree[p] = true
	}
	for i, n := range names {
		view.Head = append(view.Head, n)
		if isFree[i] {
			view.Pattern = append(view.Pattern, cq.Free)
		} else {
			view.Pattern = append(view.Pattern, cq.Bound)
		}
	}
	// Atoms: each picks 1-3 distinct variables; ensure every variable is
	// covered by appending a final atom with the leftovers.
	covered := make(map[int]bool)
	addAtom := func(vars []int, idx int) {
		arity := len(vars)
		rel := relation.NewRelation(fmt.Sprintf("R%d", idx), arity)
		for i := 0; i < rowsPerAtom; i++ {
			t := make(relation.Tuple, arity)
			for j := range t {
				t[j] = relation.Value(rng.Intn(domain))
			}
			if err := rel.Insert(t); err != nil {
				panic(err)
			}
		}
		db.Add(rel)
		atom := cq.Atom{Relation: rel.Name()}
		for _, v := range vars {
			atom.Terms = append(atom.Terms, cq.V(names[v]))
			covered[v] = true
		}
		view.Body = append(view.Body, atom)
	}
	for i := 0; i < nAtoms; i++ {
		k := 1 + rng.Intn(3)
		if k > nVars {
			k = nVars
		}
		vars := rng.Perm(nVars)[:k]
		addAtom(vars, i)
	}
	var leftovers []int
	for v := 0; v < nVars; v++ {
		if !covered[v] {
			leftovers = append(leftovers, v)
		}
	}
	if len(leftovers) > 0 {
		addAtom(leftovers, nAtoms)
	}
	nv, err := cq.Normalize(view, db)
	if err != nil {
		return nil, err
	}
	return NewInstance(nv)
}

// TestEnumAgainstNaiveRandom is the core correctness property: on random
// instances, adornments, bound valuations, and boxes, Enum must agree with
// the exhaustive oracle.
func TestEnumAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		inst, err := randomInstance(rng, 2+rng.Intn(3), 1+rng.Intn(3), 4, 1+rng.Intn(12))
		if err != nil {
			t.Fatal(err)
		}
		mu := inst.Mu
		for probe := 0; probe < 8; probe++ {
			vb := make(relation.Tuple, len(inst.NV.Bound))
			for i := range vb {
				vb[i] = relation.Value(rng.Intn(4))
			}
			// Random interval → decompose to boxes; also probe random
			// standalone boxes.
			lo := make(relation.Tuple, mu)
			hi := make(relation.Tuple, mu)
			for i := 0; i < mu; i++ {
				lo[i] = relation.Value(rng.Intn(4))
				hi[i] = relation.Value(rng.Intn(4))
			}
			iv := interval.Interval{Lo: lo, Hi: hi, LoInc: rng.Intn(2) == 0, HiInc: rng.Intn(2) == 0}
			for _, box := range interval.Decompose(iv) {
				got := Drain(NewEnum(inst, vb, box))
				want := NaiveJoin(inst, vb, box)
				if len(got) != len(want) {
					t.Fatalf("trial %d %s vb=%v box=%v: got %d tuples %v, want %d %v",
						trial, inst.NV.Source, vb, box, len(got), got, len(want), want)
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("trial %d box %v: tuple %d: got %v want %v", trial, box, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCountsAgainstNaiveRandom validates CountBox/CountBoxBound against
// scans.
func TestCountsAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		inst, err := randomInstance(rng, 2+rng.Intn(3), 1+rng.Intn(2), 4, 1+rng.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		mu := inst.Mu
		for probe := 0; probe < 10; probe++ {
			plen := rng.Intn(mu + 1)
			box := interval.Box{Prefix: make(relation.Tuple, plen)}
			for i := range box.Prefix {
				box.Prefix[i] = relation.Value(rng.Intn(4))
			}
			if plen < mu && rng.Intn(2) == 0 {
				box.HasRange = true
				box.Lo = relation.Value(rng.Intn(5) - 1)
				box.Hi = relation.Value(rng.Intn(5) - 1)
				box.LoInc = rng.Intn(2) == 0
				box.HiInc = rng.Intn(2) == 0
			}
			vb := make(relation.Tuple, len(inst.NV.Bound))
			for i := range vb {
				vb[i] = relation.Value(rng.Intn(4))
			}
			for ai, a := range inst.Atoms {
				wantFree, wantBound := 0, 0
				for r, n := 0, a.Rel.Len(); r < n; r++ {
					row := a.Rel.Row(r)
					if rowInBox(a, row, box) {
						wantFree++
						okB := true
						for i, pos := range a.BoundPos {
							if row[a.BoundCols[i]] != vb[pos] {
								okB = false
								break
							}
						}
						if okB {
							wantBound++
						}
					}
				}
				if got := inst.CountBox(ai, box); got != wantFree {
					t.Fatalf("trial %d atom %d box %v: CountBox = %d, want %d", trial, ai, box, got, wantFree)
				}
				if got := inst.CountBoxBound(ai, vb, box); got != wantBound {
					t.Fatalf("trial %d atom %d box %v vb %v: CountBoxBound = %d, want %d", trial, ai, box, vb, got, wantBound)
				}
			}
		}
	}
}

// rowInBox checks the box restriction on an atom row (free columns only).
func rowInBox(a *AtomInfo, row relation.Tuple, b interval.Box) bool {
	for k, pos := range a.FreePos {
		v := row[a.FreeCols[k]]
		if pos < len(b.Prefix) {
			if v != b.Prefix[pos] {
				return false
			}
			continue
		}
		if b.HasRange && pos == len(b.Prefix) {
			if b.LoInc && v < b.Lo || !b.LoInc && v <= b.Lo {
				return false
			}
			if b.HiInc && v > b.Hi || !b.HiInc && v >= b.Hi {
				return false
			}
		}
	}
	return true
}

// naiveBoundCandidates computes π_{V_b} of the join of the bound-touching
// atoms restricted to the box, by brute force — the Proposition 13 L_I set.
func naiveBoundCandidates(inst *Instance, box interval.Box) map[string]bool {
	out := make(map[string]bool)
	for _, a := range naiveBoundJoin(inst, box) {
		vb := a[len(a)-len(inst.NV.Bound):]
		out[string(vb.AppendEncode(nil))] = true
	}
	return out
}

// naiveBoundJoin computes the join of the bound-touching atoms restricted
// to the box, by brute force: each distinct answer once, as the values of
// the free variables those atoms hold (in free order) followed by the
// bound valuation, sorted.
func naiveBoundJoin(inst *Instance, box interval.Box) []relation.Tuple {
	nv := inst.NV
	seen := make(map[string]relation.Tuple)
	total := len(nv.Vars)
	assigned := make([]bool, total)
	vals := make(relation.Tuple, total)
	var participating []int
	for ai, a := range inst.Atoms {
		if len(a.BoundCols) > 0 {
			participating = append(participating, ai)
		}
	}
	freePosOf := make(map[int]int)
	for d, id := range nv.Free {
		freePosOf[id] = d
	}
	inBox := func(id int, v relation.Value) bool {
		d, isFree := freePosOf[id]
		if !isFree {
			return true
		}
		if d < len(box.Prefix) {
			return box.Prefix[d] == v
		}
		if box.HasRange && d == len(box.Prefix) {
			if box.LoInc && v < box.Lo || !box.LoInc && v <= box.Lo {
				return false
			}
			if box.HiInc && v > box.Hi || !box.HiInc && v >= box.Hi {
				return false
			}
		}
		return true
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(participating) {
			var a relation.Tuple
			for _, id := range nv.Free {
				if assigned[id] {
					a = append(a, vals[id])
				}
			}
			for _, id := range nv.Bound {
				if !assigned[id] {
					return // bound var not constrained by E_Vb: impossible
				}
				a = append(a, vals[id])
			}
			seen[string(a.AppendEncode(nil))] = a
			return
		}
		atom := nv.Atoms[participating[k]]
		for i, n := 0, atom.Rel.Len(); i < n; i++ {
			row := atom.Rel.Row(i)
			ok := true
			var fixed []int
			for col, id := range atom.Vars {
				if !inBox(id, row[col]) {
					ok = false
					break
				}
				if assigned[id] {
					if vals[id] != row[col] {
						ok = false
						break
					}
				} else {
					assigned[id] = true
					vals[id] = row[col]
					fixed = append(fixed, id)
				}
			}
			if ok {
				rec(k + 1)
			}
			for _, id := range fixed {
				assigned[id] = false
			}
		}
	}
	rec(0)
	out := make([]relation.Tuple, 0, len(seen))
	for _, a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TestBoundCandidatesMatchesProposition13 checks that BoundCandidates
// yields exactly π_{V_b}((⋈_{F∈E_Vb} R_F) ⋉ B) — and in particular a
// superset of the valuations with non-empty full joins — and that, where
// Witnessed holds, BoundWitnesses' valuations project onto the same set.
func TestBoundCandidatesMatchesProposition13(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	witnessed := 0
	for trial := 0; trial < 80; trial++ {
		inst, err := randomInstance(rng, 2+rng.Intn(3), 1+rng.Intn(3), 3, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		if len(inst.NV.Bound) == 0 {
			continue
		}
		boxes := []interval.Box{{}}
		if inst.Mu > 0 {
			boxes = append(boxes, interval.Box{HasRange: true, Lo: 0, LoInc: true, Hi: 1, HiInc: true})
			boxes = append(boxes, interval.Box{Prefix: relation.Tuple{1}})
		}
		for _, box := range boxes {
			if len(box.Prefix) > inst.Mu || (box.HasRange && len(box.Prefix) >= inst.Mu) {
				continue
			}
			got := make(map[string]bool)
			BoundCandidates(inst, box, func(vb relation.Tuple) bool {
				key := string(vb.AppendEncode(nil))
				if got[key] {
					t.Fatalf("trial %d: duplicate candidate %v", trial, vb)
				}
				got[key] = true
				return true
			})
			want := naiveBoundCandidates(inst, box)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s box %v: %d candidates, want %d",
					trial, inst.NV.Source, box, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("trial %d box %v: missing candidate", trial, box)
				}
			}
			if !Witnessed(inst) {
				continue
			}
			// The witnesses project onto the same candidates, each free
			// tuple inside the box.
			projected := make(map[string]bool)
			BoundWitnesses(inst, box, func(ft, vb relation.Tuple) bool {
				if !box.Contains(ft) {
					t.Fatalf("trial %d box %v: witness %v outside the box", trial, box, ft)
				}
				projected[string(vb.AppendEncode(nil))] = true
				return true
			})
			if !reflect.DeepEqual(projected, want) {
				t.Fatalf("trial %d %s box %v: witnesses project onto %d candidates, want %d",
					trial, inst.NV.Source, box, len(projected), len(want))
			}
			witnessed++
		}
	}
	if witnessed == 0 {
		t.Fatal("no trial satisfied Witnessed; BoundWitnesses went unchecked")
	}
}

func TestEstimatorRejectsNonCover(t *testing.T) {
	inst := runningExampleInstance(t)
	if _, err := NewEstimator(inst, fractional.Cover{1, 0, 0}); err == nil {
		t.Error("non-cover must be rejected")
	}
	if _, err := NewEstimator(inst, fractional.Cover{1, 1}); err == nil {
		t.Error("wrong-length cover must be rejected")
	}
}

func TestEstimatorIntervalAdditivity(t *testing.T) {
	// T over an interval equals the sum over its box decomposition, and
	// splitting an interval never increases total T (Lemma 2 direction).
	inst := runningExampleInstance(t)
	est, err := NewEstimator(inst, fractional.Cover{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	iv := interval.Full(3)
	whole := est.TInterval(iv)
	left, unit, right := iv.SplitAt(relation.Tuple{1, 1, 2})
	parts := est.TInterval(left) + est.TInterval(unit) + est.TInterval(right)
	if parts > whole+1e-6 {
		t.Errorf("split increased T: %v > %v", parts, whole)
	}
}
