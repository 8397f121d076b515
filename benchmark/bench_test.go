package main

import (
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestContract holds the program's own tables equal to BENCHMARK.json and
// BENCHMARK.json to the limits its consumers enforce.
func TestContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, listed []specMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(listed), kind, len(defs))
		}
		for i, sm := range listed {
			if sm.Name != defs[i].name || sm.Unit != defs[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the program", kind, i, sm.Name, sm.Unit, defs[i].name, defs[i].unit)
			}
			if !name.MatchString(sm.Name) || !unit.MatchString(sm.Unit) {
				t.Errorf("%s metric %q with unit %q is outside the naming rules", kind, sm.Name, sm.Unit)
			}
			if sm.Better != "lower" && sm.Better != "higher" {
				t.Errorf("%s: better is %q", sm.Name, sm.Better)
			}
			if bounded && (sm.Bound <= 0 || sm.Bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", sm.Name, sm.Bound)
			}
			if !bounded && sm.Bound != 0 {
				t.Errorf("%s: a per-layer metric has no bound", sm.Name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndMetrics, true)
	check("per-layer", spec.PerLayer, perLayerMetrics, false)
	if s := spec.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; it is %+v", s)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, window: 400 * time.Millisecond, trace: trace,
		smoke: true, outDir: t.TempDir(), clients: 2,
	}
}

// TestSmokeRuns runs every workload at smoke scale, untraced and traced.
// run itself refuses a result that is not exactly the listed metrics, all
// finite; here the end-to-end ones must also be non-zero, and a result
// compared with itself must never come out worse.
func TestSmokeRuns(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.name, trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			if !trace {
				for _, d := range endToEndMetrics {
					if v := res.Metrics[d.name].Value; v <= 0 {
						t.Errorf("%s: %s = %v, end-to-end metrics are never zero", w.name, d.name, v)
					}
				}
			}
			if err := report(cfg, res); err != nil {
				t.Fatal(err)
			}
			side, err := readResults(filepath.Join(cfg.outDir, "results.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			rows, anyWorse := compareResults(spec, side, side)
			if anyWorse || len(rows) < 2 {
				t.Errorf("%s trace=%v compared with itself:\n%s", w.name, trace, strings.Join(rows, "\n"))
			}
		}
	}
}

// TestCorruptedCountsFail checks the in-window correctness check: with one
// entry of the expected-count table off by one, the window reports failed
// requests, and run turns any failed request into an error.
func TestCorruptedCountsFail(t *testing.T) {
	fx := workloads[0].generate(7, true)
	st, err := setupNode(t.TempDir(), fx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	calls, err := nodeCalls(fx, st.built)
	if err != nil {
		t.Fatal(err)
	}
	if rec := runClients(st.url, calls, 2, 200*time.Millisecond, nil); rec.failed != 0 || rec.attempted == 0 {
		t.Fatalf("honest table: %d of %d failed: %v", rec.failed, rec.attempted, rec.firstErr)
	}
	calls[0].want++
	if rec := runClients(st.url, calls, 2, 200*time.Millisecond, nil); rec.failed == 0 || rec.firstErr == nil {
		t.Fatalf("corrupted table: %d of %d failed", rec.failed, rec.attempted)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		base, cand, spread, bound float64
		higher                    bool
		want                      string
	}{
		{100, 104, 0.02, 0.10, false, "within"},
		{100, 120, 0.02, 0.10, false, "worse"},
		{100, 80, 0.02, 0.10, false, "better"},
		{100, 80, 0.02, 0.10, true, "worse"},
		{100, 120, 0.02, 0.10, true, "better"},
		{100, 120, 0.30, 0.10, false, "unresolved"},
		{0, 1, 0, 0.10, false, "unresolved"},
	} {
		if got, _ := verdict(c.base, c.cand, c.spread, c.bound, c.higher); got != c.want {
			t.Errorf("verdict(%v→%v, spread %v, bound %v, higher=%v) = %s, want %s", c.base, c.cand, c.spread, c.bound, c.higher, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000*1e3
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	if lo, hi := bucketBounds(histBucket(123456789)); lo > 123456789 || hi <= 123456789 {
		t.Errorf("bucket of 123456789 is [%v, %v)", lo, hi)
	}
}
