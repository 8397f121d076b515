package httpserve

import (
	"maps"
	"math"
	"testing"

	"cqrep/internal/relation"
)

// TestParseBindingsVerdicts pins ParseBindings on every FuzzBindingsJSON
// seed and a few more: whether the body is accepted, and the request it
// parses to. The verdicts are encoding/json's (the parser it replaced),
// quirks included — a quoted integer is a value, a top-level null is an
// empty request, an escaped name is unescaped — except where a row is
// marked tightened: duplicate keys and field names that differ from
// "bindings" and "limit" (encoding/json matched them case-insensitively)
// are rejected, where encoding/json let the last value win.
func TestParseBindingsVerdicts(t *testing.T) {
	type b = map[string]relation.Value
	rows := []struct {
		body      string
		ok        bool
		bindings  b
		limit     int
		tightened bool
	}{
		{body: ``, ok: true},
		{body: `{}`, ok: true},
		{body: `{"bindings": {}}`, ok: true},
		{body: `{"bindings": {"x": 1, "z": 3}}`, ok: true, bindings: b{"x": 1, "z": 3}},
		{body: `{"bindings": {"x": -9223372036854775808}, "limit": 100}`, ok: true, bindings: b{"x": math.MinInt64}, limit: 100},
		{body: `{"bindings": {"x": 9223372036854775807}}`, ok: true, bindings: b{"x": math.MaxInt64}},
		{body: `{"limit": 0}`, ok: true},
		{body: `{"limit": 1099511627776}`},
		{body: `{"bindings": {"x": 1.5}}`},
		{body: `{"bindings": {"x": 1e3}}`},
		{body: `{"bindings": {"x": "1"}}`, ok: true, bindings: b{"x": 1}},
		{body: `{"bindings": {"x": null}}`},
		{body: `{"bindings": {"x": 1}, "unknown": true}`},
		{body: `{"bindings": {"x": 1}} trailing`},
		{body: `{"bindings": {"x": 1}}{"bindings": {"x": 2}}`},
		{body: `[1, 2, 3]`},
		{body: `{"bindings": 5}`},
		{body: `{"limit": -1}`},
		{body: `{"limit": 1.5}`},
		{body: "{\"bindings\": {\"\\u0000\": 1}}", ok: true, bindings: b{"\x00": 1}},
		{body: `{not json`},
		{body: `{"bindings": {"x": 1, "x": 2}}`, tightened: true},
		{body: `{"bindings": {"x": 1}, "bindings": {"z": 3}}`, tightened: true},
		{body: `{"bindings": {"\u0078": 1}}`, ok: true, bindings: b{"x": 1}},
		{body: `{"bindings": {"x\ud800": 1}}`, ok: true, bindings: b{"x\uFFFD": 1}},

		{body: `{"limit": 1, "limit": 2}`, tightened: true},
		{body: `{"Bindings": {"x": 1}}`, tightened: true},
		{body: `{"LIMIT": 3}`, tightened: true},
		{body: `{"bindings": {"x": 1, "\u0078": 2}}`, tightened: true},
		{body: `null`, ok: true},
		{body: " \t\r\n", ok: true},
		{body: `{"bindings": null, "limit": null}`, ok: true},
		{body: ` { "bindings" : { "x" : -0 } , "limit" : "2147483647" } `, ok: true, bindings: b{"x": 0}, limit: 1<<31 - 1},
		{body: `{"limit": 2147483648}`},
		{body: `{"bindings": {"x": 9223372036854775808}}`},
		{body: `{"bindings": {"x": -9223372036854775809}}`},
		{body: `{"bindings": {"x": "1.5"}}`},
		{body: `{"bindings": {"x": " 1"}}`},
		{body: `{"bindings": {"x": "\u0031"}}`, ok: true, bindings: b{"x": 1}},
		{body: `{"bindings": {"x": 01}}`},
		{body: `{"bindings": {"x": +1}}`},
		{body: `{"bindings": {"x": 1,}}`},
		{body: `{"bindings": {"x": 1}`},
		{body: `{"bindings": {"x\q": 1}}`},
		{body: "{\"bindings\": {\"\xff\": 1}}", ok: true, bindings: b{"\uFFFD": 1}},
		{body: "{\"bindings\": {\"x\n\": 1}}"},
		{body: `{"bindings": {"x": 1}}null`},
		{body: `nul`},
	}
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.body] = true
		req, err := ParseBindings([]byte(r.body))
		if ok := err == nil; ok != r.ok {
			t.Errorf("%s: accepted = %v (err %v), want %v", r.body, ok, err, r.ok)
			continue
		}
		if r.tightened && r.ok {
			t.Fatalf("%s: a tightened row must be a rejection", r.body)
		}
		if !maps.Equal(req.Bindings, r.bindings) || req.Limit != r.limit {
			t.Errorf("%s: parsed %+v, want bindings %v limit %d", r.body, req, r.bindings, r.limit)
		}
	}
	for _, s := range bindingsSeeds {
		if !covered[s] {
			t.Errorf("fuzz seed %q has no row", s)
		}
	}
}

// BenchmarkParseBindings parses the canonical two-binding body.
func BenchmarkParseBindings(b *testing.B) {
	body := []byte(`{"bindings": {"x": 1, "z": 3}}`)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ParseBindings(body); err != nil {
			b.Fatal(err)
		}
	}
}
