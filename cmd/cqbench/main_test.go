package main

import (
	"os"
	"regexp"
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
		{"run E18 directly", "E18", []string{"E18"}},
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

	// The error lists the registered ids exactly: every one of them, and
	// none of the retired ids (E17, E19, E20) that a range such as
	// "E1..E21" would wrongly name as valid.
	t.Run("unknown id", func(t *testing.T) {
		listed := regexp.MustCompile(`\(want one of ([^)]*)\)`)
		for _, run := range []string{"E1,E99", "E0", "E1,", "", "E17", "E19", "e20", "E16,E19"} {
			got, err := selectExperiments(run, all)
			if err == nil {
				t.Fatalf("-run %q selected %v, want an error", run, got)
			}
			m := listed.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("-run %q: error %q lists no ids", run, err)
			}
			ids := strings.Split(m[1], ", ")
			if len(ids) != len(all) {
				t.Fatalf("-run %q: error lists %v, want the %d registered ids", run, ids, len(all))
			}
			for i, e := range all {
				if ids[i] != e.ID {
					t.Fatalf("-run %q: error lists %v, want %s at position %d", run, ids, e.ID, i)
				}
			}
			for _, id := range ids {
				if id == "E17" || id == "E19" || id == "E20" {
					t.Fatalf("-run %q: error names retired experiment %s as valid", run, id)
				}
			}
		}
	})
}

// runIDs matches an experiment selection on a command line: -run followed
// by one or more comma-separated ids (case-insensitive, as cqbench reads
// them). go test's own -run patterns ('TestSnapshot', NONE, '^$') do not
// start with an id and are not matched.
var runIDs = regexp.MustCompile(`-run[= ]+['"]?([Ee][0-9]+\b(?:,[Ee][0-9]+\b)*)`)

// TestSelectedExperimentsRunnable checks that every id the Makefile and CI
// pass to -run resolves in RunExperiment's registry, so a make target or
// CI step left pointing at a retired experiment fails here instead of in
// the pipeline.
func TestSelectedExperimentsRunnable(t *testing.T) {
	for _, path := range []string{"../../Makefile", "../../.github/workflows/ci.yml"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		matches := runIDs.FindAllStringSubmatch(string(src), -1)
		if len(matches) == 0 {
			t.Fatalf("%s: no -run E… selection found; the extraction pattern has drifted from the file", path)
		}
		for _, m := range matches {
			if _, err := selectExperiments(m[1], cqrep.Experiments()); err != nil {
				t.Errorf("%s: -run %s: %v", path, m[1], err)
			}
		}
	}
}
