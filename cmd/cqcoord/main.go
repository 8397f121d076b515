// Command cqcoord is the scatter-gather front of the distributed serving
// tier (DESIGN.md §6): it reads each sharded snapshot's route card without
// decoding the snapshot, copies each shard's frame out as a self-contained
// snapshot file, keeps only the route card per view (the adorned view, its
// shard key, order and sizes), and serves the same client API
// as a single cqserve node — routing bound-key queries to the worker that
// owns the key's shard and merging free enumerations across all workers
// in the view's declared EnumOrder, byte-identically to single-node
// serving.
//
//	cqcli compile -view 'V[bf](x, y) :- R(x, p), R(y, p)' -shards 4 -rel R=r.csv -o v.cqs
//	cqcoord -snapshot v.cqs -addr :8070 &
//	cqserve -join http://127.0.0.1:8070 -addr :8081 &
//	cqserve -join http://127.0.0.1:8070 -addr :8082 &
//	curl -s localhost:8070/v1/query/V -d '{"bindings":{"x":1}}'
//
// Workers join by snapshot: POST /v1/join makes the coordinator push
// /v1/attach calls naming shard files the worker fetches from the
// coordinator's GET /v1/shardfile/{view}/{shard}. Shard ownership lives in
// an atomically swapped shard map with the same refcount-gated retire
// discipline as /v1/reload, so POST /v1/move rebalances shards without
// breaking in-flight streams. GET /readyz reports ready only once every
// shard of every view has an owner; GET /v1/stats includes a per-worker
// latency/error breakdown; GET /v1/map shows the live assignment.
//
// -cache-bytes N turns on the merged-result cache: a repeated hot binding
// replays its encoded client stream straight from coordinator memory —
// zero worker hops — under an N-byte LRU budget, with concurrent misses
// coalesced; join/move bump the shard-map generation, invalidating stale
// entries by key. Counters appear under "cache" in /v1/stats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cqrep/internal/coord"
)

// config is the parsed command line, separated from main for testability.
type config struct {
	addr       string
	snapshots  []string
	advertise  string
	spool      string
	flushBatch int
	cacheBytes int64
	drain      time.Duration
}

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

// parseFlags resolves args into a config. Positional arguments are also
// accepted as snapshot paths, so `cqcoord a.cqs b.cqs` works.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("cqcoord", flag.ContinueOnError)
	var snaps listFlag
	fs.Var(&snaps, "snapshot", "sharded snapshot file to coordinate (repeatable; positional args work too)")
	cfg := config{}
	fs.StringVar(&cfg.addr, "addr", ":8070", "listen address")
	fs.StringVar(&cfg.advertise, "advertise", "", "base URL workers reach this coordinator on (default derived from the listen address)")
	fs.StringVar(&cfg.spool, "spool", "", "directory for exported per-shard snapshot files (default: fresh temp dir)")
	fs.IntVar(&cfg.flushBatch, "flush-batch", 0, "tuples batched per client-stream flush (0 = default 128); match the workers' for byte-identical streams")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", 0, "merged-result cache budget in bytes (0 = caching off); a hot binding replays from memory with zero worker hops, invalidated by shard-map generation on join/move")
	fs.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.snapshots = append([]string(nil), snaps...)
	cfg.snapshots = append(cfg.snapshots, fs.Args()...)
	if len(cfg.snapshots) == 0 {
		return cfg, errors.New("usage: cqcoord [-addr :8070] -snapshot FILE.cqs [-snapshot ...]")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqcoord:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cqcoord:", err)
		os.Exit(1)
	}
}

// advertiseURL derives the base URL workers can fetch shard files from; a
// wildcard listen host becomes 127.0.0.1 (single-machine topologies),
// multi-host deployments pass -advertise.
func advertiseURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// run coordinates until ctx is cancelled, then drains gracefully.
func run(ctx context.Context, cfg config, logw *os.File) error {
	// The listener comes up first: the coordinator's own URL is part of
	// every attach it pushes (workers fetch shard files from it), so it
	// must be known — and reachable — before any join is answered.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	self := cfg.advertise
	if self == "" {
		self = advertiseURL(ln.Addr())
	}
	c, err := coord.New(cfg.snapshots, coord.Options{
		SelfURL:    self,
		SpoolDir:   cfg.spool,
		FlushBatch: cfg.flushBatch,
		CacheBytes: cfg.cacheBytes,
	})
	if err != nil {
		ln.Close()
		return err
	}
	srv := &http.Server{
		Handler:     c,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	fmt.Fprintf(logw, "cqcoord: coordinating %d snapshot(s) on %s (advertised as %s)\n", len(cfg.snapshots), ln.Addr(), self)

	// The ctx watcher owns the shutdown half of the lifecycle so Serve
	// can stay a plain blocking call: when the root context fires it
	// drains in-flight requests (bounded by -drain) and Serve returns
	// http.ErrServerClosed. The drain context derives from ctx through
	// WithoutCancel — the drain must outlive the cancellation that
	// triggered it, but stays in its value chain.
	serveDone := make(chan struct{})
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		select {
		case <-serveDone:
			return // Serve failed on its own; nothing left to shut down
		case <-ctx.Done():
		}
		fmt.Fprintln(logw, "cqcoord: shutting down")
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cfg.drain)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			srv.Close()
		}
	}()
	err = srv.Serve(ln)
	close(serveDone)
	<-shutdownDone
	c.Close()
	if errors.Is(err, http.ErrServerClosed) && ctx.Err() != nil {
		return nil // graceful: the watcher closed the listener
	}
	return err
}
