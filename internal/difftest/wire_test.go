package difftest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cqrep/internal/core"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// TestWireFormatsDifferential extends the differential harness across the
// network boundary: 120 seeded random acyclic CQ/database instances are
// compiled, snapshotted, and served by one cqserve registry, and for every
// bound valuation with answers (plus a guaranteed miss) the binary-framed
// stream decoded by the client must be byte-identical to both the NDJSON
// stream and the in-process enumeration. A small flush batch forces most
// results across multiple binary frames, so frame boundaries land inside
// result sets rather than around them.
func TestWireFormatsDifferential(t *testing.T) {
	const instances = 120
	dir := t.TempDir()
	type instance struct {
		c    *Case
		rep  *core.Representation
		name string
	}
	paths := make([]string, 0, instances)
	insts := make([]instance, 0, instances)
	for seed := 0; seed < instances; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		c := Generate(rng)
		// The generator always names its view Q; the registry needs the 120
		// views apart.
		c.View.Name = fmt.Sprintf("Q%d", seed)
		rep, err := core.Build(c.View, c.DB)
		if err != nil {
			t.Fatalf("seed %d: build: %v\nview: %v", seed, err, c.View)
		}
		path := filepath.Join(dir, fmt.Sprintf("q%d.cqs", seed))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		insts = append(insts, instance{c: c, rep: rep, name: c.View.Name})
	}

	h, err := httpserve.New(paths, httpserve.Options{FlushBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := &httpserve.Client{Base: ts.URL}
	ctx := context.Background()

	checked := 0
	for seed, in := range insts {
		answers := in.c.NaiveAnswers()
		for _, vb := range Valuations(answers, len(in.c.Bound)) {
			bind := make(map[string]relation.Value, len(in.c.Bound))
			for i, n := range in.c.Bound {
				bind[n] = vb[i]
			}
			bin, err := cl.QueryOpts(ctx, in.name, httpserve.QueryOptions{Bindings: bind, Format: httpserve.FormatBinary})
			if err != nil {
				t.Fatalf("seed %d: binding %v: binary query: %v", seed, vb, err)
			}
			nd, err := cl.QueryOpts(ctx, in.name, httpserve.QueryOptions{Bindings: bind, Format: httpserve.FormatNDJSON})
			if err != nil {
				t.Fatalf("seed %d: binding %v: ndjson query: %v", seed, vb, err)
			}
			want := core.Drain(in.rep.Query(vb))
			if !bytes.Equal(encodeSeq(bin.Tuples), encodeSeq(want)) {
				t.Fatalf("seed %d: binding %v: binary stream diverges from in-process enumeration\n got (%d): %v\nwant (%d): %v\nview: %v",
					seed, vb, len(bin.Tuples), bin.Tuples, len(want), want, in.c.View)
			}
			if !bytes.Equal(encodeSeq(bin.Tuples), encodeSeq(nd.Tuples)) {
				t.Fatalf("seed %d: binding %v: binary and NDJSON streams disagree (%d vs %d tuples)\nview: %v",
					seed, vb, len(bin.Tuples), len(nd.Tuples), in.c.View)
			}
			checked++
		}
	}
	if checked < instances {
		t.Fatalf("only %d bindings checked; generator degenerated", checked)
	}
	t.Logf("wire differential: %d instances, %d binding checks in each of 2 formats", instances, checked)
}
