package httpserve

import (
	"encoding/json"
	"testing"

	"cqrep/internal/relation"
)

// bindingsSeeds are FuzzBindingsJSON's seed corpus; TestParseBindingsVerdicts
// pins the verdict and the parsed request of every one.
var bindingsSeeds = []string{
	``,
	`{}`,
	`{"bindings": {}}`,
	`{"bindings": {"x": 1, "z": 3}}`,
	`{"bindings": {"x": -9223372036854775808}, "limit": 100}`,
	`{"bindings": {"x": 9223372036854775807}}`,
	`{"limit": 0}`,
	`{"limit": 1099511627776}`,
	`{"bindings": {"x": 1.5}}`,
	`{"bindings": {"x": 1e3}}`,
	`{"bindings": {"x": "1"}}`,
	`{"bindings": {"x": null}}`,
	`{"bindings": {"x": 1}, "unknown": true}`,
	`{"bindings": {"x": 1}} trailing`,
	`{"bindings": {"x": 1}}{"bindings": {"x": 2}}`,
	`[1, 2, 3]`,
	`{"bindings": 5}`,
	`{"limit": -1}`,
	`{"limit": 1.5}`,
	"{\"bindings\": {\"\\u0000\": 1}}",
	`{not json`,
	`{"bindings": {"x": 1, "x": 2}}`,
	`{"bindings": {"x": 1}, "bindings": {"z": 3}}`,
	`{"bindings": {"\u0078": 1}}`,
	`{"bindings": {"x\ud800": 1}}`,
}

// FuzzBindingsJSON hardens the HTTP binding parser against adversarial
// request bodies: whatever arrives on the wire, ParseBindings must not
// panic, must bound what it builds, and must either reject the input or
// return a self-consistent request.
func FuzzBindingsJSON(f *testing.F) {
	for _, s := range bindingsSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseBindings(data)
		if err != nil {
			// Rejected input must not leak a half-built request.
			if req.Bindings != nil || req.Limit != 0 {
				t.Fatalf("error %v returned non-zero request %+v", err, req)
			}
			return
		}
		if req.Limit < 0 {
			t.Fatalf("accepted negative limit %d", req.Limit)
		}
		if len(req.Bindings) > maxBindings {
			t.Fatalf("accepted %d bindings, cap is %d", len(req.Bindings), maxBindings)
		}
		// An accepted request must round-trip through the canonical wire
		// shape: what we parsed is what a client can send.
		if len(req.Bindings) > 0 {
			body, err := json.Marshal(map[string]any{"bindings": req.Bindings, "limit": req.Limit})
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			again, err := ParseBindings(body)
			if err != nil {
				t.Fatalf("re-parse of canonical form %s: %v", body, err)
			}
			if len(again.Bindings) != len(req.Bindings) || again.Limit != req.Limit {
				t.Fatalf("round trip changed the request: %+v vs %+v", req, again)
			}
			for k, v := range req.Bindings {
				if again.Bindings[k] != v {
					t.Fatalf("round trip changed binding %q: %d vs %d", k, v, again.Bindings[k])
				}
			}
		}
		_ = relation.Value(0)
	})
}
