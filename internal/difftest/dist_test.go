package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"cqrep/internal/coord"
	"cqrep/internal/core"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// TestDistributedDifferential is the distributed composite of the
// differential harness: the same 120 seeded random acyclic CQ instances
// as the wire test, compiled with 3 shards, are served twice — by one
// single-node cqserve registry and by a real coordinator fanning out to 3
// in-process workers that joined over the wire protocol (shard files
// fetched from the coordinator's spool). For every valuation with answers
// plus the guaranteed miss, the raw response bodies must be byte-identical
// between the two serving tiers in both encodings: routing, scatter,
// EnumOrder merge, framing, flush boundaries — everything observable on
// the wire.
func TestDistributedDifferential(t *testing.T) {
	const instances = 120
	const shards = 3
	const flushBatch = 3 // force frame boundaries inside result sets
	dir := t.TempDir()
	type instance struct {
		c    *Case
		name string
	}
	paths := make([]string, 0, instances)
	insts := make([]instance, 0, instances)
	for seed := 0; seed < instances; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		c := Generate(rng)
		c.View.Name = fmt.Sprintf("Q%d", seed)
		rep, err := core.Build(c.View, c.DB, core.WithShards(shards))
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
		insts = append(insts, instance{c: c, name: c.View.Name})
	}

	single, err := httpserve.New(paths, httpserve.Options{FlushBatch: flushBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	singleTS := httptest.NewServer(single)
	defer singleTS.Close()

	var cptr atomic.Pointer[coord.Coordinator]
	coordTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := cptr.Load(); c != nil {
			c.ServeHTTP(w, r)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	}))
	defer coordTS.Close()
	co, err := coord.New(paths, coord.Options{SelfURL: coordTS.URL, SpoolDir: t.TempDir(), FlushBatch: flushBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	cptr.Store(co)
	for i := 0; i < 3; i++ {
		wh, err := httpserve.NewSpecs(nil, httpserve.Options{Admin: true, SpoolDir: t.TempDir(), FlushBatch: flushBatch})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer wh.Close()
		wts := httptest.NewServer(wh)
		defer wts.Close()
		body, _ := json.Marshal(map[string]string{"url": wts.URL})
		resp, err := http.Post(coordTS.URL+"/v1/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("joining worker %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("joining worker %d: %s: %s", i, resp.Status, b)
		}
		resp.Body.Close()
	}
	// Full coverage is a precondition for the comparisons below.
	if resp, err := http.Get(coordTS.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator not ready after 3 joins: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	raw := func(base, view string, body []byte, format httpserve.Format) (int, []byte) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/query/"+view, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", format.MediaType())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	checked := 0
	for seed, in := range insts {
		answers := in.c.NaiveAnswers()
		for _, vb := range Valuations(answers, len(in.c.Bound)) {
			bind := make(map[string]relation.Value, len(in.c.Bound))
			for i, n := range in.c.Bound {
				bind[n] = vb[i]
			}
			body, err := json.Marshal(map[string]any{"bindings": bind})
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range []httpserve.Format{httpserve.FormatNDJSON, httpserve.FormatBinary} {
				wantStatus, want := raw(singleTS.URL, in.name, body, format)
				gotStatus, got := raw(coordTS.URL, in.name, body, format)
				if wantStatus != gotStatus {
					t.Fatalf("seed %d: binding %v (%s): coordinator status %d != single-node %d", seed, vb, format, gotStatus, wantStatus)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("seed %d: binding %v (%s): coordinator body diverges from single node\nwant %q\ngot  %q\nview: %v",
						seed, vb, format, want, got, in.c.View)
				}
			}
			checked++
		}
	}
	if checked < instances {
		t.Fatalf("only %d bindings checked; generator degenerated", checked)
	}
	t.Logf("distributed differential: %d instances over 3 workers, %d binding checks in each of 2 formats", instances, checked)
}
