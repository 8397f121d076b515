// Command cqcli compiles an adorned view over CSV relations and serves
// access requests interactively. It supports the compile-once / serve-many
// split through snapshots:
//
//	cqcli compile -view 'V[bf](x, y) :- R(x, p), R2(y, p)' -rel R=r.csv -rel R2=r.csv -o rep.cqs
//	cqcli serve rep.cqs
//
// `compile` pays the preprocessing cost T_C once and writes the compiled
// representation to a versioned, checksummed snapshot file; `serve` loads
// it — without recompiling — and answers access requests read from stdin:
// bound values separated by spaces (in the view's bound-variable order),
// one request per line, printing the matching free tuples.
//
// Invoked without a subcommand, cqcli prints this usage and exits 2.
//
// Options mirror the library's planner: -tau, -space, -delay, -strategy,
// -workers, -shards. `-shards n` hash-partitions the database and compiles
// one sub-representation per shard (requests route to the owning shard);
// the shard count is baked into the snapshot, so `serve` reports it on
// load and answers through the same routing. Ctrl-C cancels an in-flight
// compilation or enumeration cleanly.
//
// cqcli is written entirely against the public cqrep package — it is the
// reference out-of-tree consumer of the API.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"cqrep"
)

type relFlags []string

func (r *relFlags) String() string     { return strings.Join(*r, ",") }
func (r *relFlags) Set(s string) error { *r = append(*r, s); return nil }

const (
	compileUsage = "usage: cqcli compile -view '...' -rel NAME=FILE [-rel ...] -o FILE.cqs"
	serveUsage   = "usage: cqcli serve [-limit N] FILE.cqs"
)

func main() {
	// Ctrl-C cancels compilation and any in-flight enumeration instead of
	// killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compile":
			compileMain(ctx, os.Args[2:])
			return
		case "serve":
			serveMain(ctx, os.Args[2:])
			return
		}
	}
	fmt.Fprintln(os.Stderr, compileUsage)
	fmt.Fprintln(os.Stderr, serveUsage)
	os.Exit(2)
}

// compileMain is `cqcli compile`: load the relations, compile the view per
// the flags, and save the snapshot.
func compileMain(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("cqcli compile", flag.ExitOnError)
	var rels relFlags
	fs.Var(&rels, "rel", "relation source NAME=FILE.csv (repeatable)")
	viewSrc := fs.String("view", "", "adorned view, e.g. 'V[bfb](x,y,z) :- R(x,y), R(y,z), R(z,x)'")
	tau := fs.Float64("tau", 0, "Theorem-1 threshold τ (0 = unset)")
	space := fs.Float64("space", 0, "space budget in entries (planner minimizes delay)")
	delay := fs.Float64("delay", 0, "delay budget τ (planner minimizes space)")
	strategy := fs.String("strategy", "auto", "auto|primitive|decomposition|materialized|direct|allbound")
	workers := fs.Int("workers", 0, "compilation worker goroutines (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 1, "hash-shard the database and compile one sub-representation per shard (1 = unsharded)")
	out := fs.String("o", "", "snapshot output file (required)")
	fs.Parse(args)
	if *out == "" || *viewSrc == "" || len(rels) == 0 {
		fmt.Fprintln(os.Stderr, compileUsage)
		os.Exit(2)
	}

	view, err := cqrep.Parse(*viewSrc)
	if err != nil {
		fatal(err)
	}
	db := cqrep.NewDatabase()
	for _, spec := range rels {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -rel %q, want NAME=FILE", spec))
		}
		rel, err := loadCSV(name, file)
		if err != nil {
			fatal(err)
		}
		db.Add(rel)
		fmt.Fprintf(os.Stderr, "loaded %s: %d tuples\n", name, rel.Len())
	}

	var opts []cqrep.Option
	if *workers > 0 {
		opts = append(opts, cqrep.WithWorkers(*workers))
	}
	if *shards != 1 {
		// Out-of-range counts (0, negatives) flow through so Compile rejects
		// them with ErrBadOption instead of being silently corrected here.
		opts = append(opts, cqrep.WithShards(*shards))
	}
	switch *strategy {
	case "auto":
	case "primitive":
		opts = append(opts, cqrep.WithStrategy(cqrep.PrimitiveStrategy))
	case "decomposition":
		opts = append(opts, cqrep.WithStrategy(cqrep.DecompositionStrategy))
	case "materialized":
		opts = append(opts, cqrep.WithStrategy(cqrep.MaterializedStrategy))
	case "direct":
		opts = append(opts, cqrep.WithStrategy(cqrep.DirectStrategy))
	case "allbound":
		opts = append(opts, cqrep.WithStrategy(cqrep.AllBoundStrategy))
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	if *tau > 0 {
		opts = append(opts, cqrep.WithTau(*tau))
	}
	if *space > 0 {
		opts = append(opts, cqrep.WithSpaceBudget(*space))
	}
	if *delay > 0 {
		opts = append(opts, cqrep.WithDelayBudget(*delay))
	}

	rep, err := cqrep.Compile(ctx, view, db, opts...)
	if err != nil {
		fatal(err)
	}
	printStats(rep, "built")
	if err := rep.Save(*out); err != nil {
		fatal(err)
	}
	if info, err := os.Stat(*out); err == nil {
		fmt.Fprintf(os.Stderr, "saved snapshot %s (%d bytes); serve it with: cqcli serve %s\n", *out, info.Size(), *out)
	}
}

// serveMain is `cqcli serve`: load a snapshot and answer stdin requests —
// no recompilation, so startup is bounded by I/O, not by T_C.
func serveMain(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("cqcli serve", flag.ExitOnError)
	limit := fs.Int("limit", 20, "max tuples printed per request")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, serveUsage)
		os.Exit(2)
	}
	rep, err := cqrep.Load(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	printStats(rep, "loaded")
	serveLoop(ctx, rep, *limit)
}

// printStats reports the representation's shape on stderr.
func printStats(rep *cqrep.Representation, verb string) {
	st := rep.Stats()
	sharding := ""
	if st.Shards > 1 {
		sharding = fmt.Sprintf(" across %d shards", st.Shards)
	}
	fmt.Fprintf(os.Stderr, "%s %v representation: %d entries, %d bytes%s, compile time %v\n",
		verb, st.Strategy, st.Entries, st.Bytes, sharding, st.BuildTime)
	fmt.Fprintf(os.Stderr, "bound order: %v; output columns: %v\n", rep.BoundNames(), rep.FreeNames())
}

// serveLoop reads one access request per line from stdin and prints the
// matching free tuples.
func serveLoop(ctx context.Context, rep *cqrep.Representation, limit int) {
	bound := rep.BoundNames()
	// Stdin is read on its own goroutine so Ctrl-C still exits the process
	// while the main loop is blocked waiting for a request line (the signal
	// context suppresses SIGINT's default kill behavior).
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				// The serve loop has stopped receiving; without this branch
				// the send would wedge the goroutine forever.
				return
			}
		}
	}()
	for {
		var raw string
		var open bool
		select {
		case <-ctx.Done():
			interrupted()
		case raw, open = <-lines:
			if !open {
				return
			}
		}
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != len(bound) {
			fmt.Fprintf(os.Stderr, "want %d bound values (%v), got %d\n", len(bound), bound, len(fields))
			continue
		}
		vb := make(cqrep.Tuple, len(fields))
		ok := true
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad value %q: %v\n", f, err)
				ok = false
				break
			}
			vb[i] = cqrep.Value(v)
		}
		if !ok {
			continue
		}
		count := 0
		var qerr error
		for t, err := range rep.All2(ctx, vb) {
			if err != nil {
				qerr = err
				break
			}
			count++
			if count <= limit {
				fmt.Println(t)
			}
		}
		if qerr != nil {
			if ctx.Err() != nil {
				interrupted()
			}
			fmt.Fprintf(os.Stderr, "query failed after %d tuples: %v\n", count, qerr)
			continue
		}
		fmt.Fprintf(os.Stderr, "%d tuples\n", count)
	}
}

// interrupted reports a Ctrl-C abort and exits with the conventional
// SIGINT status (128+2), so scripts can tell an aborted session from a
// completed one.
func interrupted() {
	fmt.Fprintln(os.Stderr, "interrupted")
	os.Exit(130)
}

// fatal prints the failure and exits. The typed sentinel errors of the
// public API get actionable one-liners; anything else prints as-is.
func fatal(err error) {
	switch {
	case errors.Is(err, cqrep.ErrInfeasibleBudget):
		fmt.Fprintln(os.Stderr, "cqcli: the requested -space/-delay budget is infeasible for this view and data; relax it or drop it to let the planner choose")
		fmt.Fprintln(os.Stderr, "cqcli:", err)
	case errors.Is(err, cqrep.ErrBadView):
		fmt.Fprintln(os.Stderr, "cqcli: the -view does not compile against the loaded relations (check the syntax, relation names, and arities)")
		fmt.Fprintln(os.Stderr, "cqcli:", err)
	case errors.Is(err, cqrep.ErrStrategyMismatch):
		fmt.Fprintln(os.Stderr, "cqcli: the forced -strategy cannot serve this view's adornment; try -strategy auto")
		fmt.Fprintln(os.Stderr, "cqcli:", err)
	case errors.Is(err, cqrep.ErrBadOption):
		fmt.Fprintln(os.Stderr, "cqcli: an option argument is out of range")
		fmt.Fprintln(os.Stderr, "cqcli:", err)
	case errors.Is(err, cqrep.ErrSnapshotVersion):
		fmt.Fprintln(os.Stderr, "cqcli: the snapshot was written by an incompatible cqcli version; recompile it with `cqcli compile`")
		fmt.Fprintln(os.Stderr, "cqcli:", err)
	case errors.Is(err, cqrep.ErrBadSnapshot):
		fmt.Fprintln(os.Stderr, "cqcli: the snapshot file is corrupt or not a cqrep snapshot; recompile it with `cqcli compile`")
		fmt.Fprintln(os.Stderr, "cqcli:", err)
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "cqcli: interrupted")
	default:
		fmt.Fprintln(os.Stderr, "cqcli:", err)
	}
	os.Exit(1)
}

func loadCSV(name, file string) (*cqrep.Relation, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := csv.NewReader(f)
	rd.FieldsPerRecord = -1
	var rel *cqrep.Relation
	for {
		rec, err := rd.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		if rel == nil {
			rel = cqrep.NewRelation(name, len(rec))
		}
		t := make(cqrep.Tuple, len(rec))
		for i, c := range rec {
			v, err := strconv.ParseInt(strings.TrimSpace(c), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: non-integer cell %q", file, c)
			}
			t[i] = cqrep.Value(v)
		}
		if err := rel.Insert(t); err != nil {
			return nil, err
		}
	}
	if rel == nil {
		return nil, fmt.Errorf("%s: empty file", file)
	}
	return rel, nil
}
