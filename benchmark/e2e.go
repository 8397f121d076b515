package main

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/relation"
)

// A run sets its serving tier up at least minSetupCycles times, and on
// until the cycles add up to setupBudget or there are maxSetupCycles of
// them, so a tier that is ready in a fifth of a second is timed often
// enough for its median to be steady. The median is setup_s; the last tier
// built is the one measured.
const (
	minSetupCycles = 3
	maxSetupCycles = 9
	setupBudget    = 2 * time.Second
)

// verifySample is how many requests of a workload with thousands of
// distinct ones are compared byte for byte before its window.
const verifySample = 2000

// repeatSetup runs setup several times, each in its own directory, tearing
// every tier but the last down again, and reports the wall times and the
// directory of the tier it returns.
func repeatSetup[T any](dir string, setup func(dir string) (T, error), teardown func(T)) (tier T, tierDir string, seconds []float64, err error) {
	var none T
	var total time.Duration
	for i := 0; ; i++ {
		cycleDir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(cycleDir, 0o777); err != nil {
			return none, "", nil, err
		}
		// Collect the previous cycle's garbage outside the timed region, so
		// every cycle starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		st, err := setup(cycleDir)
		if err != nil {
			return none, "", nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		total += took
		seconds = append(seconds, took.Seconds())
		n := len(seconds)
		if n == maxSetupCycles || n >= minSetupCycles && total >= setupBudget {
			return st, cycleDir, seconds, nil
		}
		teardown(st)
		if err := os.RemoveAll(cycleDir); err != nil {
			return none, "", nil, err
		}
	}
}

func setupMeasure(seconds []float64) measure {
	return measure{Value: median(seconds), Slices: seconds, Samples: uint64(len(seconds))}
}

// residentHeapMB is the live heap once serving is ready and before any
// load: what the tier costs to keep resident.
func residentHeapMB() measure {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return exact(float64(ms.HeapAlloc) / (1 << 20))
}

// encodedBytes is the size of db in the snapshot codec's own relation
// encoding: the denominator of the space ratio.
func encodedBytes(db *relation.Database) int64 {
	e := relation.NewEncoder(io.Discard)
	e.Database(db)
	return e.Len()
}

func describe(fx *fixture, st core.Stats, counts []int) builtInfo {
	info := builtInfo{
		View: fx.view, Strategy: st.Strategy.String(), Tau: st.Tau, Entries: st.Entries,
		Requests: len(counts), AnswerHistogram: map[string]int{},
	}
	for _, n := range counts {
		label := "0"
		if n == 1 {
			label = "1"
		} else if n > 1 {
			lo := 1 << (bits.Len(uint(n)) - 1)
			label = fmt.Sprintf("%d-%d", lo, 2*lo-1)
		}
		info.AnswerHistogram[label]++
	}
	return info
}

func wants(calls []call) []int {
	out := make([]int, len(calls))
	for i, c := range calls {
		out[i] = c.want
	}
	return out
}

func runEndToEnd(cfg config, def workloadDef, dir string, res *result) error {
	fx := def.generate(cfg.seed, cfg.smoke)
	var err error
	if def.engine == engineChurn {
		res.Metrics, err = churnEndToEnd(cfg, def, fx, dir, res)
	} else {
		res.Metrics, err = servingEndToEnd(cfg, def, fx, dir, res)
	}
	return err
}

// spaceRatio is the paper's space axis: bytes of the compiled snapshot per
// byte of the base relations it was compiled from.
func spaceRatio(snapshotBytes, inputBytes int64) measure {
	return exact(float64(snapshotBytes) / float64(inputBytes))
}

// servingEndToEnd measures a workload whose clients talk HTTP: set the
// tier up, measure what it keeps resident, prove the wire streams equal
// the in-process enumeration, then run the one untraced window.
func servingEndToEnd(cfg config, def workloadDef, fx *fixture, dir string, res *result) (map[string]measure, error) {
	inputBytes := encodedBytes(fx.db)
	setup := setupNode
	if def.engine == engineDist {
		setup = setupDist
	}
	st, setupDir, setupS, err := repeatSetup(dir,
		func(d string) (*stack, error) { return setup(d, fx) },
		(*stack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	// From here on only what serves is alive: the generated database and
	// the compile-side structure go, so the heap reading is the tier's.
	st.built, fx.db = nil, nil
	heap := residentHeapMB()

	calls, oracles, err := prepareCalls(def, fx, setupDir)
	if err != nil {
		return nil, err
	}
	res.Built = describe(fx, oracles[calls[0].view].Stats(), wants(calls))
	if err := verifyCalls(st.url, calls, sampleCalls(len(calls), cfg.seed), oracles); err != nil {
		return nil, fmt.Errorf("correctness before the window: %w", err)
	}

	rec := runClients(st.url, calls, cfg.clients, cfg.window, nil)
	if rec.firstErr != nil {
		return nil, fmt.Errorf("%d of %d requests failed in the window, first: %w", rec.failed, rec.attempted, rec.firstErr)
	}
	res.Attempted, res.Failed = rec.attempted, rec.failed
	metrics := rec.servingMetrics()
	metrics["setup_s"] = setupMeasure(setupS)
	metrics["resident_heap_mb"] = heap
	metrics["space_per_input_byte"] = spaceRatio(st.snapshotBytes, inputBytes)
	return metrics, nil
}

// prepareCalls loads the tier's snapshots back in-process as the oracle and
// builds the call cycle: the fixture's requests and, on the distributed
// tier, one all-free scatter enumeration per sweep, so half the tuples of a
// sweep are routed to one shard and half are merged from all three.
func prepareCalls(def workloadDef, fx *fixture, setupDir string) ([]call, map[string]*core.Representation, error) {
	oracle, err := loadSnapshot(filepath.Join(setupDir, "view.cqs"))
	if err != nil {
		return nil, nil, err
	}
	oracles := map[string]*core.Representation{oracle.View().Name: oracle}
	calls, err := nodeCalls(fx, oracle)
	if err != nil {
		return nil, nil, err
	}
	if def.engine == engineDist {
		sc, err := loadSnapshot(filepath.Join(setupDir, "scatter.cqs"))
		if err != nil {
			return nil, nil, err
		}
		oracles[sc.View().Name] = sc
		all, err := scatterCall(fx, sc)
		if err != nil {
			return nil, nil, err
		}
		calls = append(calls, all)
	}
	return calls, oracles, nil
}

// sampleCalls picks which calls are verified byte for byte: all of them,
// or a seeded verifySample when there are more.
func sampleCalls(n int, seed int64) []int {
	if n <= verifySample {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return rand.New(rand.NewSource(seed + 7)).Perm(n)[:verifySample]
}

// churnEndToEnd measures reads beside writes on a maintained view.
func churnEndToEnd(cfg config, def workloadDef, fx *fixture, dir string, res *result) (map[string]measure, error) {
	inputBytes := encodedBytes(fx.db)
	ops, err := churnScript(cfg.seed, fx, scriptSteps(cfg.window.Seconds()*(1+warmupShare)))
	if err != nil {
		return nil, err
	}
	cs, _, setupS, err := repeatSetup(dir,
		func(d string) (*churnStack, error) { return setupChurn(d, fx) },
		func(cs *churnStack) { cs.close() })
	if err != nil {
		return nil, err
	}
	fx.db = nil // the maintained view owns its own copy
	heap := residentHeapMB()
	counts := make([]int, len(fx.reqs))
	for i, vb := range fx.reqs {
		if _, counts[i], err = drainQuery(cs.m, vb, time.Now()); err != nil {
			return nil, err
		}
	}
	res.Built = describe(fx, cs.m.Snapshot().Stats(), counts)

	out := runChurn(cs.m, fx, ops, counts, max(1, cfg.clients-1), cfg.window, cfg.seed)
	if out.firstErr != nil {
		return nil, fmt.Errorf("update %d failed: %w", out.applied, out.firstErr)
	}
	if out.readers.firstErr != nil {
		return nil, fmt.Errorf("%d of %d reads failed, first: %w", out.readers.failed, out.readers.attempted, out.readers.firstErr)
	}
	fresh := def.gen(cfg.seed, cfg.smoke).db
	if err := verifyChurn(cs, fx, fresh, ops, out.applied); err != nil {
		return nil, fmt.Errorf("correctness after the window: %w", err)
	}
	res.Attempted = out.readers.attempted + out.applied
	metrics := out.readers.servingMetrics()
	metrics["setup_s"] = setupMeasure(setupS)
	metrics["resident_heap_mb"] = heap
	metrics["space_per_input_byte"] = spaceRatio(cs.snapshotBytes, inputBytes)
	return metrics, nil
}
