package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is BENCHMARK.json, the contract this program is written
// to: the workloads, and each metric's unit, direction and — end to end —
// the share of the baseline by which it may worsen.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (the program is run from the repository root or from benchmark/).
func loadSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		body, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

// readResults loads a results.jsonl and groups its runs by workload.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// sideStats is one side of a comparison for one (metric, workload): the
// median over that side's runs, and how far the number moves by itself —
// across runs when there are at least four, else across the slices inside
// the runs there are — as a share of the median.
func sideStats(runs []result, metric string) (med, spread float64, n int) {
	var vals, within []float64
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		vals = append(vals, m.Value)
		if len(m.Slices) > 1 && m.Value != 0 {
			q1, _, q3 := quartiles(m.Slices)
			within = append(within, (q3-q1)/m.Value)
		}
	}
	if len(vals) == 0 {
		return 0, 0, 0
	}
	q1, med, q3 := quartiles(vals)
	switch {
	case len(vals) >= 4 && med != 0:
		spread = (q3 - q1) / med
	case len(within) > 0:
		spread = median(within)
	}
	return med, max(spread, -spread), len(vals)
}

// verdict compares a candidate median with a baseline median under bound.
// worse is the change as a share of the baseline, signed so that positive
// is worse whichever direction is better.
func verdict(base, cand, spread, bound float64, higherBetter bool) (label string, worse float64) {
	if base == 0 {
		return "unresolved", 0
	}
	worse = (cand - base) / base
	if higherBetter {
		worse = -worse
	}
	switch {
	case spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case worse < -bound:
		return "better", worse
	}
	return "within", worse
}

// compareMain prints one row per (metric, workload) present on both sides
// and returns the exit code: 1 when any end-to-end metric is worse by more
// than its bound, 2 when the comparison could not be made.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASELINE.jsonl CANDIDATE.jsonl")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	cand, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	rows, anyWorse := compareResults(spec, base, cand)
	for _, row := range rows {
		fmt.Println(row)
	}
	if anyWorse {
		return 1
	}
	return 0
}

func compareResults(spec *benchmarkSpec, base, cand map[string][]result) (rows []string, anyWorse bool) {
	var names []string
	for w := range base {
		if _, ok := cand[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	rows = append(rows, fmt.Sprintf("%-16s %-46s %14s %14s %8s %8s %6s  %s",
		"workload", "metric", "baseline", "candidate", "change", "spread", "bound", "verdict"))
	for _, w := range names {
		for _, group := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, sm := range group {
				b, bSpread, bn := sideStats(base[w], sm.Name)
				c, cSpread, cn := sideStats(cand[w], sm.Name)
				if bn == 0 || cn == 0 {
					continue
				}
				spread := max(bSpread, cSpread)
				label, _ := verdict(b, c, spread, sm.Bound, sm.Better == "higher")
				if sm.Bound == 0 {
					label = "per-layer" // reported, never gating
				}
				if label == "worse" {
					anyWorse = true
				}
				rows = append(rows, fmt.Sprintf("%-16s %-46s %14.6g %14.6g %+7.1f%% %7.1f%% %6.2f  %s (n=%d/%d)",
					w, sm.Name, b, c, 100*(c-b)/b, 100*spread, sm.Bound, label, bn, cn))
			}
		}
	}
	return rows, anyWorse
}
