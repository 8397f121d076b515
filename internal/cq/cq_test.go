package cq

import (
	"strings"
	"testing"

	"cqrep/internal/relation"
)

func TestParseTriangle(t *testing.T) {
	v, err := Parse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "V" {
		t.Errorf("Name = %q", v.Name)
	}
	if got := v.Pattern.String(); got != "bfb" {
		t.Errorf("Pattern = %q", got)
	}
	if len(v.Body) != 3 {
		t.Fatalf("body atoms = %d", len(v.Body))
	}
	if got := v.FreeVars(); len(got) != 1 || got[0] != "y" {
		t.Errorf("FreeVars = %v", got)
	}
	if got := v.BoundVars(); len(got) != 2 || got[0] != "x" || got[1] != "z" {
		t.Errorf("BoundVars = %v", got)
	}
	if !v.IsFull() {
		t.Error("triangle view is full")
	}
}

func TestParseDefaultsToAllFree(t *testing.T) {
	v := MustParse("Q(x, y) :- R(x, y)")
	if v.Pattern.String() != "ff" {
		t.Errorf("default pattern = %q, want ff", v.Pattern.String())
	}
}

func TestParseConstantsAndNegatives(t *testing.T) {
	v := MustParse("Q[fb](x, z) :- R(x, y, 7), S(y, y, z), T(-3, z)")
	if !v.Body[0].Terms[2].IsConst || v.Body[0].Terms[2].Const != 7 {
		t.Error("constant 7 not parsed")
	}
	if !v.Body[2].Terms[0].IsConst || v.Body[2].Terms[0].Const != -3 {
		t.Error("constant -3 not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"V[bfb](x, y) :- R(x, y)",         // pattern length mismatch
		"V[q](x) :- R(x)",                 // bad adornment rune
		"V(x) :- ",                        // missing body
		"V(x) : R(x)",                     // bad separator
		"V(x) :- R(x) garbage",            // trailing input
		"V(x, x) :- R(x)",                 // repeated head var
		"V(x, y) :- R(x)",                 // y not in body
		"V(3) :- R(x)",                    // constant in head
		"V[bf](x, y) :- R(x, y), R(x, y,", // unterminated
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseRoundTripString(t *testing.T) {
	v := MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	v2, err := Parse(v.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", v.String(), err)
	}
	if v2.String() != v.String() {
		t.Errorf("round trip: %q != %q", v2.String(), v.String())
	}
}

func TestExtendToFull(t *testing.T) {
	v := MustParse("Q[b](x) :- R(x, y), S(y, z)")
	if v.IsFull() {
		t.Fatal("not full")
	}
	ext := v.ExtendToFull()
	if !ext.IsFull() {
		t.Fatal("ExtendToFull not full")
	}
	if got := strings.Join(ext.Head, ","); got != "x,y,z" {
		t.Errorf("extended head = %q", got)
	}
	if ext.Pattern.String() != "bff" {
		t.Errorf("extended pattern = %q", ext.Pattern.String())
	}
	full := MustParse("Q[bf](x, y) :- R(x, y)")
	if full.ExtendToFull() != full {
		t.Error("already-full view must be returned unchanged")
	}
}

func testDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	r.MustInsert(1, 2)
	r.MustInsert(2, 3)
	r.MustInsert(3, 1)
	db.Add(r)
	s := relation.NewRelation("S", 3)
	s.MustInsert(1, 1, 5)
	s.MustInsert(1, 2, 6)
	s.MustInsert(2, 2, 7)
	db.Add(s)
	return db
}

func TestNormalizePlain(t *testing.T) {
	db := testDB()
	v := MustParse("V[bf](x, y) :- R(x, y)")
	nv, err := Normalize(v, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(nv.Atoms) != 1 || nv.Atoms[0].Rel.Name() != "R" {
		t.Fatal("plain atom must reuse the base relation")
	}
	if nv.VarID("x") != 0 || nv.VarID("y") != 1 || nv.VarID("zz") != -1 {
		t.Error("VarID mapping wrong")
	}
	if got := nv.FreeNames(); len(got) != 1 || got[0] != "y" {
		t.Errorf("FreeNames = %v", got)
	}
	if got := nv.BoundNames(); len(got) != 1 || got[0] != "x" {
		t.Errorf("BoundNames = %v", got)
	}
}

func TestNormalizeRepeatedVarsAndConstants(t *testing.T) {
	// Example 3 shape: S(y, y, z) keeps rows with col0 == col1.
	db := testDB()
	v := MustParse("Q[ff](y, z) :- S(y, y, z)")
	nv, err := Normalize(v, db)
	if err != nil {
		t.Fatal(err)
	}
	derived := nv.Atoms[0].Rel
	if derived.Name() == "S" {
		t.Fatal("rewritten atom must use a derived relation")
	}
	if derived.Len() != 2 {
		t.Fatalf("derived len = %d, want 2 (rows (1,1,5),(2,2,7))", derived.Len())
	}
	if !derived.Contains(relation.Tuple{1, 5}) || !derived.Contains(relation.Tuple{2, 7}) {
		t.Error("derived contents wrong")
	}

	v2 := MustParse("Q2[ff](x, y) :- S(x, y, 6)")
	nv2, err := Normalize(v2, db)
	if err != nil {
		t.Fatal(err)
	}
	d2 := nv2.Atoms[0].Rel
	if d2.Len() != 1 || !d2.Contains(relation.Tuple{1, 2}) {
		t.Errorf("constant filter wrong: %v", d2.Tuples())
	}
}

func TestNormalizeRejectsNonFull(t *testing.T) {
	db := testDB()
	v := MustParse("Q[b](x) :- R(x, y)")
	if _, err := Normalize(v, db); err == nil {
		t.Error("non-full view must be rejected")
	}
	if _, err := Normalize(v.ExtendToFull(), db); err != nil {
		t.Errorf("extended view must normalize: %v", err)
	}
}

func TestNormalizeErrors(t *testing.T) {
	db := testDB()
	if _, err := Normalize(MustParse("Q[ff](x, y) :- T(x, y)"), db); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := Normalize(MustParse("Q[ff](x, y) :- R(x, y, y)"), db); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, err := Normalize(MustParse("Q[f](x) :- R(x, 2), S(1, 1, 5)"), db); err == nil {
		t.Error("fully-ground atom must fail")
	}
}

func TestBindArgs(t *testing.T) {
	v := MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	vb, err := v.BindArgs(map[string]relation.Value{"x": 1, "z": 3})
	if err != nil {
		t.Fatal(err)
	}
	if !vb.Equal(relation.Tuple{1, 3}) {
		t.Errorf("vb = %v, want (1, 3)", vb)
	}
	if _, err := v.BindArgs(map[string]relation.Value{"x": 1}); err == nil {
		t.Error("missing bound var must fail")
	}
	if _, err := v.BindArgs(map[string]relation.Value{"x": 1, "z": 3, "y": 2}); err == nil {
		t.Error("binding a free var must fail")
	}
	if _, err := v.BindArgs(map[string]relation.Value{"x": 1, "z": 3, "w": 2}); err == nil {
		t.Error("unknown var must fail")
	}
}

func TestHypergraph(t *testing.T) {
	db := testDB()
	nv, err := Normalize(MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"), db)
	if err != nil {
		t.Fatal(err)
	}
	h := nv.Hypergraph()
	if h.N != 3 || len(h.Edges) != 3 {
		t.Fatalf("hypergraph shape: N=%d edges=%d", h.N, len(h.Edges))
	}
	touching := h.EdgesTouching([]int{nv.VarID("y")})
	if len(touching) != 2 {
		t.Errorf("edges touching y = %v, want 2 edges", touching)
	}
	within := h.EdgesWithin([]int{nv.VarID("x"), nv.VarID("y")})
	if len(within) != 1 || within[0] != 0 {
		t.Errorf("edges within {x,y} = %v", within)
	}
	adj := h.PrimalNeighbors()
	for v := 0; v < 3; v++ {
		if len(adj[v]) != 2 {
			t.Errorf("triangle primal degree of %d = %d, want 2", v, len(adj[v]))
		}
	}
}

func TestAccessPatternParse(t *testing.T) {
	if _, err := ParseAccessPattern("bfx"); err == nil {
		t.Error("bad rune accepted")
	}
	p, err := ParseAccessPattern("bffb")
	if err != nil || p.String() != "bffb" {
		t.Error("round trip failed")
	}
}

func TestAtomVars(t *testing.T) {
	a := Atom{Relation: "R", Terms: []Term{V("x"), C(3), V("y"), V("x")}}
	got := a.Vars()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("Vars = %v", got)
	}
	if a.String() != "R(x, 3, y, x)" {
		t.Errorf("String = %q", a.String())
	}
}
