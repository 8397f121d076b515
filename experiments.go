package cqrep

import (
	"fmt"
	"strings"

	"cqrep/internal/bench"
	"cqrep/internal/experiments"
)

// ExperimentTable is one formatted result table of the reproduction (a
// paper table or figure regenerated on the caller's machine).
type ExperimentTable = bench.Table

// ExperimentConfig scales an experiment run. Scale, Queries, Workers, and
// Shards fall back to the EXPERIMENTS.md defaults (8000, 50, 1·2·4·8,
// 1·2·4·8) when left zero. Seed is used exactly as given — 0 is a valid
// PRNG seed, not a request for the default (cmd/cqbench's -seed flag
// defaults to 42). Per-experiment scale adjustments (e.g. E5 and E6
// divide the scale because their preprocessing is super-linear) are
// applied inside RunExperiment, exactly as cmd/cqbench always did.
type ExperimentConfig struct {
	Scale   int   // base data scale: edges / tuples per relation
	Queries int   // access requests per measurement
	Seed    int64 // generator seed; every generator is deterministic
	Workers []int // worker counts for the parallel-scaling experiment E16
	Shards  []int // shard counts for the sharding experiment E18
}

func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if c.Scale <= 0 {
		c.Scale = 8000
	}
	if c.Queries <= 0 {
		c.Queries = 50
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	return c
}

// Experiment identifies one reproduction experiment.
type Experiment struct {
	ID          string // "E1", "E2", ...; ids of retired experiments are not reused
	Description string
}

// experimentRunners indexes the experiment suite; the table drives both
// Experiments and RunExperiment so the two cannot drift apart.
var experimentRunners = []struct {
	id  string
	des string
	fn  func(c ExperimentConfig) []*bench.Table
}{
	{"E1", "triangle V^bfb space/delay tradeoff (Examples 1, 5)",
		func(c ExperimentConfig) []*bench.Table { return experiments.E1Triangle(c.Scale, c.Queries, c.Seed) }},
	{"E2", "all-bound views (Proposition 1)",
		func(c ExperimentConfig) []*bench.Table { return experiments.E2AllBound(c.Scale, c.Queries, c.Seed) }},
	{"E3", "d-representation constant delay (Propositions 2, 4)",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E3DRep([]int{c.Scale / 4, c.Scale / 2, c.Scale}, c.Seed)
		}},
	{"E4", "Loomis-Whitney LW3 (Example 6)",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E4LoomisWhitney(c.Scale/3, c.Queries, c.Seed)
		}},
	{"E5", "star join slack (Example 7); scale n/8 — preprocessing is Θ(N^3) for S3",
		func(c ExperimentConfig) []*bench.Table { return experiments.E5StarSlack(c.Scale/8, c.Queries, c.Seed) }},
	{"E6", "path query: Theorem 1 vs Theorem 2 (Example 10); scale n/8 — Theorem-1 preprocessing is Θ(|D|^3)",
		func(c ExperimentConfig) []*bench.Table { return experiments.E6PathDecomp(c.Scale/8, c.Queries, c.Seed) }},
	{"E7", "fast set intersection (Section 3.1, [13])",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E7SetIntersection(c.Scale, c.Queries, c.Seed)
		}},
	{"E8", "running example tree and dictionary (Examples 13-15, Figure 3)",
		func(c ExperimentConfig) []*bench.Table { return experiments.E8RunningExample() }},
	{"E9", "MinDelayCover / MinSpaceCover LPs (Section 6, Figure 5)",
		func(c ExperimentConfig) []*bench.Table { return experiments.E9Optimizer(c.Scale) }},
	{"E10", "connex decompositions and widths (Figures 2, 7; Examples 9, 16, 17)",
		func(c ExperimentConfig) []*bench.Table { return experiments.E10Connex() }},
	{"E11", "co-author graph application (introduction)",
		func(c ExperimentConfig) []*bench.Table { return experiments.E11Coauthor(c.Scale, c.Queries, c.Seed) }},
	{"E12", "answer-time model validation (Theorem 1)",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E12AnswerTime(c.Scale/2, c.Queries, c.Seed)
		}},
	{"E13", "ablation: heavy-pair dictionary on/off",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E13DictionaryAblation(c.Scale, c.Queries, c.Seed)
		}},
	{"E14", "ablation: compression time scaling",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E14BuildScaling([]int{c.Scale / 4, c.Scale / 2, c.Scale}, c.Seed)
		}},
	{"E15", "ablation: delay-assignment shapes",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E15DeltaShapes(c.Scale/4, c.Queries, c.Seed)
		}},
	{"E16", "parallel compilation speedup vs worker count (Theorem-2 path, Theorem-1 triangle)",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E16Parallel(c.Scale/8, c.Seed, c.Workers)
		}},
	{"E18", "sharded compilation and maintenance scaling vs shard count (E1/E6); scale n/2 — each count compiles the view twice",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E18Sharding(c.Scale/2, c.Queries, c.Seed, c.Shards)
		}},
	{"E21", "generation-keyed result cache under Zipf workloads: hit rate and cached serving throughput vs skew exponent on a budget that holds a fraction of the key set, cache-on verified byte-identical to cache-off",
		func(c ExperimentConfig) []*bench.Table {
			return experiments.E21CachedServe(c.Scale, c.Queries*40, c.Seed, 4)
		}},
}

// Experiments lists the reproduction's experiment suite in order.
func Experiments() []Experiment {
	out := make([]Experiment, len(experimentRunners))
	for i, r := range experimentRunners {
		out[i] = Experiment{ID: r.id, Description: r.des}
	}
	return out
}

// RunExperiment regenerates one experiment's tables. id is case-
// insensitive ("e1" == "E1"); an unknown id is an error listing every
// registered id.
func RunExperiment(id string, cfg ExperimentConfig) ([]*ExperimentTable, error) {
	cfg = cfg.withDefaults()
	key := strings.ToUpper(strings.TrimSpace(id))
	for _, r := range experimentRunners {
		if r.id == key {
			return r.fn(cfg), nil
		}
	}
	ids := make([]string, len(experimentRunners))
	for i, r := range experimentRunners {
		ids[i] = r.id
	}
	return nil, fmt.Errorf("cqrep: unknown experiment %q (want one of %s)", id, strings.Join(ids, ", "))
}
