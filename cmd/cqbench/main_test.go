package main

import (
	"strings"
	"testing"

	"cqrep"
)

// TestParseCounts covers the shared -workers / -shards list parser.
func TestParseCounts(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"1,2,4,8", []int{1, 2, 4, 8}, false},
		{" 3 , 5 ", []int{3, 5}, false},
		{"7", []int{7}, false},
		{"1,,2", []int{1, 2}, false},
		{"0", nil, true},
		{"-2", nil, true},
		{"two", nil, true},
		{"1,x", nil, true},
		{",,", nil, true},
	}
	for _, c := range cases {
		got, err := parseCounts("shards", c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseCounts(%q) = %v, want error", c.in, got)
			} else if !strings.Contains(err.Error(), "-shards") {
				t.Errorf("parseCounts(%q) error %q does not name the flag", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseCounts(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseCounts(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseCounts(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestParseCountsFallback pins the empty-list behavior: a blank list
// parses to nil, so the ExperimentConfig default applies.
func TestParseCountsFallback(t *testing.T) {
	for _, in := range []string{"", "  "} {
		got, err := parseCounts("workers", in)
		if err != nil || got != nil {
			t.Fatalf("parseCounts(%q) = %v, %v; want nil", in, got, err)
		}
	}
}

// TestSelectExperiments covers every -run form, including the rejection
// of ids the suite does not list.
func TestSelectExperiments(t *testing.T) {
	all := cqrep.Experiments()

	cases := []struct {
		name string
		run  string
		want []string // nil = the whole suite
	}{
		{"run all", "all", nil},
		{"explicit ids", "E1,E6", []string{"E1", "E6"}},
		{"case and space insensitive", " e2 , E18 ", []string{"E2", "E18"}},
		{"run E16 directly", "E16", []string{"E16"}},
		{"run E17 directly", "E17", []string{"E17"}},
		{"run E18 directly", "E18", []string{"E18"}},
		{"run E19 directly", "E19", []string{"E19"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := selectExperiments(c.run, all)
			if err != nil {
				t.Fatal(err)
			}
			if c.want == nil {
				if len(got) != len(all) {
					t.Fatalf("selected %d experiments, want the whole suite (%d)", len(got), len(all))
				}
				for _, e := range all {
					if !got[e.ID] {
						t.Fatalf("run=all missed %s", e.ID)
					}
				}
				return
			}
			if len(got) != len(c.want) {
				t.Fatalf("selected %v, want %v", got, c.want)
			}
			for _, id := range c.want {
				if !got[id] {
					t.Fatalf("selected %v, want %v", got, c.want)
				}
			}
		})
	}

	t.Run("unknown id", func(t *testing.T) {
		for _, run := range []string{"E1,E99", "E0", "E1,", ""} {
			got, err := selectExperiments(run, all)
			if err == nil {
				t.Fatalf("-run %q selected %v, want an error", run, got)
			}
			if want := "E1.." + all[len(all)-1].ID; !strings.Contains(err.Error(), want) {
				t.Fatalf("-run %q: error %q does not name the valid range %s", run, err, want)
			}
		}
	})
}

// TestSelectedExperimentsRunnable checks that every id the Makefile and CI
// pass to -run resolves in RunExperiment's registry (an id drifting out of
// the suite must fail here, not at 2 a.m. in a benchmark run).
func TestSelectedExperimentsRunnable(t *testing.T) {
	for _, run := range []string{"E1", "E16", "E17", "E18", "E19", "E20", "E21"} {
		if _, err := selectExperiments(run, cqrep.Experiments()); err != nil {
			t.Fatalf("-run %s: %v", run, err)
		}
	}
}
