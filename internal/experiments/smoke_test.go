package experiments_test

import (
	"strings"
	"testing"

	"cqrep"
)

// TestAllExperimentsSmoke runs every registered experiment at a small
// scale through the public facade and checks that each renders at least
// one table with rows. Driving it from cqrep.Experiments() means an
// experiment cannot be added to the suite without being smoke-run here.
func TestAllExperimentsSmoke(t *testing.T) {
	cfg := cqrep.ExperimentConfig{Scale: 400, Queries: 5, Seed: 1, Workers: []int{1, 2}, Shards: []int{1, 2}}
	for _, e := range cqrep.Experiments() {
		tables, err := cqrep.RunExperiment(e.ID, cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		rows := 0
		for _, tb := range tables {
			if !strings.Contains(tb.String(), "##") {
				t.Errorf("%s: table %q does not render", e.ID, tb.Title)
			}
			rows += len(tb.Rows)
		}
		if rows == 0 {
			t.Errorf("%s produced no rows", e.ID)
		}
	}
}
