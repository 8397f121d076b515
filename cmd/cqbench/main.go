// Command cqbench regenerates every experiment table of the reproduction
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results):
//
//	cqbench -run all                     # everything at default scale
//	cqbench -run E1,E5 -n 20000          # selected experiments, custom scale
//	cqbench -run E16 -workers 1,2,4,8    # parallel build scaling
//	cqbench -run E18 -shards 1,2,4,8     # sharded compile/rebuild scaling
//
// Scales are edge/tuple counts; all generators are seeded and
// deterministic. cqbench drives the suite through the public cqrep
// experiment facade (Experiments / RunExperiment) — like cqcli, it
// imports nothing under internal/. Performance claims about snapshot
// startup, network serving and delta maintenance come from the repository
// benchmark in benchmark/, not from these tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cqrep"
)

// selectExperiments resolves -run to the experiment id set: "all" is the
// whole suite, anything else a comma-separated id list, case- and
// space-insensitive. An id the suite does not list is an error naming every
// id it does list, so a typo or a retired id cannot quietly run less than
// was asked for.
func selectExperiments(run string, all []cqrep.Experiment) (map[string]bool, error) {
	known := map[string]bool{}
	for _, e := range all {
		known[e.ID] = true
	}
	if run == "all" {
		return known, nil
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(run, ",") {
		key := strings.ToUpper(strings.TrimSpace(id))
		if !known[key] {
			return nil, fmt.Errorf("cqbench: unknown experiment %q (want one of %s)", id, experimentIDs(all))
		}
		selected[key] = true
	}
	return selected, nil
}

// experimentIDs lists the registered ids, comma-separated, in suite order.
// Retired ids leave gaps, so a range such as "E1..E21" would name ids that
// do not run.
func experimentIDs(all []cqrep.Experiment) string {
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return strings.Join(ids, ", ")
}

// parseCounts parses a comma-separated list of positive ints (the -workers
// and -shards lists). An empty string yields nil, which leaves the
// ExperimentConfig default in force.
func parseCounts(flagName, s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("cqbench: invalid count %q in -%s", part, flagName)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cqbench: -%s needs at least one count", flagName)
	}
	return out, nil
}

func main() {
	all := cqrep.Experiments()
	run := flag.String("run", "all", fmt.Sprintf("comma-separated experiment ids (%s) or 'all'", experimentIDs(all)))
	n := flag.Int("n", 8000, "base data scale (edges / tuples per relation)")
	queries := flag.Int("queries", 50, "access requests per measurement")
	seed := flag.Int64("seed", 42, "generator seed")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated parallel-build worker counts for E16 (run sorted ascending; the smallest is the speedup baseline)")
	shardsFlag := flag.String("shards", "1,2,4,8", "comma-separated shard counts for E18: compile-time and rebuild-time scaling on the E1/E6 workloads, verified byte-identical")
	flag.Parse()

	workers, err := parseCounts("workers", *workersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shardCounts, err := parseCounts("shards", *shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	selected, err := selectExperiments(*run, all)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := cqrep.ExperimentConfig{Scale: *n, Queries: *queries, Seed: *seed, Workers: workers, Shards: shardCounts}

	for _, e := range all {
		if !selected[e.ID] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n\n", e.ID, e.Description)
		tables, err := cqrep.RunExperiment(e.ID, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqbench:", err)
			os.Exit(1)
		}
		for _, tb := range tables {
			fmt.Println(tb.String())
		}
	}
}
