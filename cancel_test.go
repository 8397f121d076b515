// Cancellation tests: a context cancelled mid-compilation or
// mid-enumeration must surface ctx.Err() promptly and leave no goroutines
// behind. All of them run under -race in CI.
package cqrep_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cqrep"
	"cqrep/internal/workload"
)

// waitNoLeak polls until the goroutine count returns to (about) the
// baseline, failing with a full stack dump if it never does. A small
// tolerance absorbs runtime/test-framework goroutines.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// cancelDuringCompile starts Compile on a workload whose full build takes
// seconds, cancels after delay, and asserts the prompt ctx.Err() contract.
func cancelDuringCompile(t *testing.T, view *cqrep.View, db *cqrep.Database, opts ...cqrep.Option) {
	t.Helper()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := cqrep.Compile(ctx, view, db, opts...)
	elapsed := time.Since(start)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Compile = (%v, %v), want (nil, context.Canceled); elapsed %v", rep, err, elapsed)
	}
	// "Prompt" allows generous slack for race-instrumented CI machines —
	// workers only poll between witnesses, candidates or chunks, so they
	// finish their in-flight join work first — but stays below the
	// uncancelled build (~1.4s plain, ~11s under -race for the star
	// workload on 2 cores).
	if elapsed > 10*time.Second {
		t.Fatalf("Compile returned %v after cancellation, not promptly", elapsed)
	}
	waitNoLeak(t, base)
}

// TestCompileCancelPrimitive cancels a parallel Theorem-1 build (star
// join, τ = 1 — over a second of heavy-pair dictionary work across 4
// workers) mid-flight.
func TestCompileCancelPrimitive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload")
	}
	db := workload.StarDB(7, 3, 700, 90)
	cancelDuringCompile(t, workload.StarView(3), db,
		cqrep.WithStrategy(cqrep.PrimitiveStrategy), cqrep.WithTau(1), cqrep.WithWorkers(4))
}

// TestCompileCancelDecomposition cancels a parallel Theorem-2 build (path
// query over the Example-10 decomposition, per-bag structures on 4
// workers) mid-flight.
func TestCompileCancelDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload")
	}
	db := workload.PathDB(11, 4, 1000, 60)
	cancelDuringCompile(t, workload.PathView(4), db,
		cqrep.WithStrategy(cqrep.DecompositionStrategy), cqrep.WithWorkers(4))
}

// walkCtx is never cancelled until it is polled from inside the
// Theorem-1 dictionary's join walk; from then on it reports
// context.Canceled: a cancel that lands during the walk.
type walkCtx struct {
	context.Context
	hit atomic.Bool
}

func (c *walkCtx) Err() error {
	if c.hit.Load() {
		return context.Canceled
	}
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, ".walkWitnesses.") {
			c.hit.Store(true)
			return context.Canceled
		}
		if !more {
			return nil
		}
	}
}

// TestCompileCancelDuringWalk cancels a Theorem-1 build while its walk
// goroutines enumerate the candidate join and requires the prompt
// ctx.Err() contract.
func TestCompileCancelDuringWalk(t *testing.T) {
	db := workload.SkewedTriangleDB(7, 300, 3000)
	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx := &walkCtx{Context: context.Background()}
		start := time.Now()
		rep, err := cqrep.Compile(ctx, view, db, cqrep.WithStrategy(cqrep.PrimitiveStrategy),
			cqrep.WithTau(8), cqrep.WithWorkers(workers))
		if rep != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: Compile = (%v, %v), want (nil, context.Canceled)", workers, rep, err)
		}
		if !ctx.hit.Load() {
			t.Fatalf("workers %d: the build never polled ctx from its walk", workers)
		}
		if el := time.Since(start); el > 10*time.Second {
			t.Fatalf("workers %d: Compile returned %v after cancellation, not promptly", workers, el)
		}
		waitNoLeak(t, base)
	}
}

// TestAllCancelMidEnumeration cancels the context inside an All2 range loop
// and requires the sequence to stop within one tuple, ending with exactly
// one (nil, context.Canceled) element.
func TestAllCancelMidEnumeration(t *testing.T) {
	ctx0 := context.Background()
	db := workload.TriangleDB(7, 120, 900)
	view := cqrep.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)")
	rep, err := cqrep.Compile(ctx0, view, db, cqrep.WithStrategy(cqrep.DirectStrategy))
	if err != nil {
		t.Fatal(err)
	}
	// Find a binding with several answers so cancellation hits mid-stream.
	r, _ := db.Relation("R")
	var binding cqrep.Tuple
	total := 0
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		vb := cqrep.Tuple{row[0], row[1]}
		if n := len(cqrep.Drain(rep.Query(vb))); n > total {
			binding, total = vb, n
		}
	}
	if total < 3 {
		t.Fatalf("densest binding has only %d answers; workload too sparse for the test", total)
	}
	ctx, cancel := context.WithCancel(ctx0)
	defer cancel()
	got, errs := 0, 0
	for tup, err := range rep.All2(ctx, binding) {
		if err != nil {
			errs++
			if tup != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("terminal element (%v, %v), want (nil, context.Canceled)", tup, err)
			}
			continue
		}
		if errs > 0 {
			t.Fatalf("tuple %v after the terminal error element", tup)
		}
		got++
		if got == 2 {
			cancel()
		}
	}
	if got != 2 || errs != 1 {
		t.Fatalf("enumerated %d tuples and %d error elements after cancelling at 2, want 2 and 1 (full result: %d)", got, errs, total)
	}
}
