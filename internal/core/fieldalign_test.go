package core

import (
	"testing"

	"cqrep/internal/structlayout"
)

// TestHotStructFieldAlignment pins the serving-path and snapshot structs
// at zero padding waste: the declared field order must cost no more bytes
// than the optimal ordering under gc layout rules. serverReq, chanIterator
// and blockAdapter are allocated once per request, lazySnapshot once per
// mapped shard frame, so interleaving a small field in the wrong place
// here is a real per-request cost. Server and lazySnapshot were reordered
// to reach this (Server 184 → 176, lazySnapshot 88 → 80 on 64-bit).
func TestHotStructFieldAlignment(t *testing.T) {
	for name, v := range map[string]any{
		"serverReq":    serverReq{},
		"chanIterator": chanIterator{},
		"blockAdapter": blockAdapter{},
		"streamErr":    streamErr{},
		"Server":       Server{},
		"lazySnapshot": lazySnapshot{},
		"mmapRef":      mmapRef{},
	} {
		size, optimal := structlayout.Waste(v)
		if size > optimal {
			t.Errorf("%s: size %d > optimal %d — reorder fields to remove padding", name, size, optimal)
		}
	}
}
