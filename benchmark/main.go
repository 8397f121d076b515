// Command benchmark is the repository's benchmark: four workloads, each
// generated from a seed, compiled, snapshotted, loaded and served in this
// process over loopback TCP, checked for correctness, and measured over one
// fixed-length window. README.md in this directory is the manual.
//
//	benchmark --workload scan-binary --seed 42 --seconds 20 --trace 0
//	benchmark compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// maxProcs caps the processors the run uses, so a number measured on a
// large machine and one measured in the two-core sandbox load the program
// the same way: clients = GOMAXPROCS = min(nproc, maxProcs).
const maxProcs = 4

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	smoke    bool
	outDir   string
	clients  int
}

// A result is one run's record: what ran, on what, and every number with
// the samples behind it. It is appended to results.jsonl for compare.
type result struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Seed       int64              `json:"seed"`
	WindowS    float64            `json:"window_s"`
	Smoke      bool               `json:"smoke,omitempty"`
	Commit     string             `json:"commit"`
	Go         string             `json:"go"`
	NProc      int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Clients    int                `json:"clients"`
	WALFlush   string             `json:"wal_flush_policy"`
	Built      builtInfo          `json:"built"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]measure `json:"metrics"`
}

// builtInfo records what was actually compiled and asked, so a comparison
// can tell a changed plan or a changed workload from a changed speed.
type builtInfo struct {
	View     string  `json:"view"`
	Strategy string  `json:"strategy"`
	Tau      float64 `json:"tau,omitempty"`
	Entries  int     `json:"entries"`
	Requests int     `json:"distinct_requests"`
	// AnswerHistogram counts distinct requests by answer-set size in
	// power-of-two buckets: "0", "1", "2-3", "4-7", …
	AnswerHistogram map[string]int `json:"answer_histogram"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		// A run that failed a correctness check reports no numbers at all.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := report(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var seconds float64
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: scan-binary, point-ndjson, dist-scan or churn-readwrite")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed every input is generated from")
	fs.Float64Var(&seconds, "seconds", 20, "length of the measurement window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics from one untraced window; 1: per-layer metrics from the traced pass")
	fs.BoolVar(&cfg.smoke, "smoke", false, "shrink every fixture 16x (for the package's tests; not comparable)")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory results.jsonl and the span dump are written to")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, err := findWorkload(cfg.workload); err != nil {
		return cfg, err
	}
	if seconds <= 0 || seconds > 600 {
		return cfg, fmt.Errorf("-seconds %v is outside (0, 600]", seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace wants 0 or 1, not %d", trace)
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.clients = min(runtime.NumCPU(), maxProcs)
	return cfg, nil
}

func run(cfg config) (*result, error) {
	runtime.GOMAXPROCS(cfg.clients)
	def, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	// Scratch files live inside the checkout, never in the system's temp
	// directory: a run reads and writes nothing outside its own tree.
	if err := os.MkdirAll(".bench_build", 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, WindowS: cfg.window.Seconds(), Smoke: cfg.smoke,
		Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: cfg.clients, Clients: cfg.clients,
		WALFlush: walFlushPolicy,
	}
	if cfg.trace {
		err = runTraced(cfg, def, dir, res)
	} else {
		err = runEndToEnd(cfg, def, dir, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d operations failed", cfg.workload, res.Failed, res.Attempted)
	}
	return res, checkMetrics(res.Metrics, metricsFor(cfg.trace))
}

// checkMetrics holds the run to the contract in BENCHMARK.json — exactly
// the listed names, each a finite number — and stamps each with its unit.
func checkMetrics(got map[string]measure, want []metricDef) error {
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		m.Unit = d.unit
		got[d.name] = m
	}
	for name := range got {
		if !hasMetric(want, name) {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return nil
}

// commit is the revision the binary was built from, when the build could
// see one; the driver's checkouts are not repositories.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// report prints every metric by name for a reader, appends the full record
// to results.jsonl, and ends standard output with the one-line JSON object
// the driver parses.
func report(cfg config, res *result) error {
	defs := metricsFor(cfg.trace)
	fmt.Printf("%s  seed=%d window=%.0fs clients=%d gomaxprocs=%d wal-flush=%q\n",
		res.Workload, res.Seed, res.WindowS, res.Clients, res.GoMaxProcs, res.WALFlush)
	fmt.Printf("  built %s as %s (tau %g), %d entries; %d distinct requests, answers %v\n",
		res.Built.View, res.Built.Strategy, res.Built.Tau, res.Built.Entries, res.Built.Requests, res.Built.AnswerHistogram)
	for _, d := range defs {
		m := res.Metrics[d.name]
		line := fmt.Sprintf("  %-46s %14.6g %-6s", d.name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if len(m.Slices) > 1 {
			q1, _, q3 := quartiles(m.Slices)
			line += fmt.Sprintf(" slice-iqr=%.1f%%", 100*(q3-q1)/m.Value)
		}
		if m.Whole != 0 {
			line += fmt.Sprintf(" whole=%.6g", m.Whole)
		}
		fmt.Println(line)
	}

	if err := os.MkdirAll(cfg.outDir, 0o777); err != nil {
		return err
	}
	rec, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.outDir, "results.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(rec, '\n'))
	if err := errors.Join(werr, f.Close()); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		last.Metrics[d.name] = value{res.Metrics[d.name].Value, d.unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
