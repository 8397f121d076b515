// Command cqserve is the network front of the compile-once / serve-many
// split: it loads one or more compiled-representation snapshots (written
// by `cqcli compile -o`) and serves them to remote clients over HTTP.
//
//	cqcli compile -view 'V[bf](x, y) :- R(x, p), R(y, p)' -rel R=r.csv -o v.cqs
//	cqserve -snapshot v.cqs -addr :8080
//	curl -s localhost:8080/v1/query/V -d '{"bindings":{"x":1}}'
//
// The wire API (DESIGN.md §5): POST /v1/query/{view} takes JSON bindings
// and streams result tuples in enumeration order — NDJSON by default, or
// the length-prefixed binary framing when the request Accepts
// application/x-cqrep-binary; GET /v1/views lists the registry; GET
// /v1/stats reports tuple/shard counts and request/latency counters;
// POST /v1/reload re-reads the snapshot files and swaps them in
// atomically while in-flight requests finish on the representation they
// started with.
//
// -mmap maps snapshots instead of eagerly decoding them (per-shard lazy
// decode on first touch), -flush-batch tunes the tuples-per-flush batch
// of the stream writers, and -pprof exposes the net/http/pprof profiling
// endpoints under /debug/pprof/ on the same listener. -cache-bytes N
// turns on the hot-binding result cache (DESIGN.md §8): repeated
// bindings replay their encoded result stream from memory under an N-byte
// LRU budget, concurrent misses for one key coalesce into a single
// enumeration, and /v1/reload (or attach/detach) invalidates stale
// entries by registry generation — hit/miss/evict/coalesce counters show
// up in /v1/stats.
//
// -wal-dir <dir> arms durable-update recovery (DESIGN.md §9): on startup
// every view replays its <dir>/<view>.wal tail — churn a crashed writer
// acknowledged but never compiled into the snapshot — on top of the
// loaded representation, persists the recovered state back over the
// snapshot file, and compacts the log, so a kill -9 loses nothing and a
// second start replays zero entries. /readyz and /v1/stats report the
// replay count; a log that cannot be replayed (schema mismatch) fails
// the load rather than silently dropping durable writes.
//
// Worker mode (-worker, or -join http://coord) starts with an empty
// registry, exposes POST /v1/attach and /v1/detach so a cqcoord
// coordinator can ship shard snapshots onto this node, and — with -join —
// announces itself to the coordinator (retrying until it is up) and holds
// GET /readyz at 503 until membership is confirmed. GET /healthz reports
// liveness; /readyz additionally forces every registered view decodable.
//
// SIGINT/SIGTERM shuts down gracefully: the listener stops, in-flight
// streams are cancelled through their request contexts and drain before
// the process exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cqrep/internal/httpserve"
)

// config is the parsed command line, separated from main for testability.
type config struct {
	addr       string
	snapshots  []string
	flushBatch int
	cacheBytes int64
	mmap       bool
	pprof      bool
	drain      time.Duration
	worker     bool
	join       string
	advertise  string
	spool      string
	walDir     string
}

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

// parseFlags resolves args into a config. Positional arguments are also
// accepted as snapshot paths, so `cqserve a.cqs b.cqs` works.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("cqserve", flag.ContinueOnError)
	var snaps listFlag
	fs.Var(&snaps, "snapshot", "snapshot file to serve (repeatable; positional args work too)")
	cfg := config{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.flushBatch, "flush-batch", 0, "tuples batched per stream flush (0 = default 128)")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", 0, "hot-binding result cache budget in bytes (0 = caching off); entries are invalidated by registry generation on reload/attach/detach")
	fs.BoolVar(&cfg.mmap, "mmap", false, "mmap snapshots instead of eager decode (lazy per-shard decode on first touch)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the listen address")
	fs.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")
	fs.BoolVar(&cfg.worker, "worker", false, "worker mode: start with an empty registry and expose /v1/attach//v1/detach for a coordinator (implied by -join)")
	fs.StringVar(&cfg.join, "join", "", "coordinator base URL to join (e.g. http://coord:8070); enables worker mode")
	fs.StringVar(&cfg.advertise, "advertise", "", "base URL the coordinator reaches this worker on (default derived from the listen address)")
	fs.StringVar(&cfg.spool, "spool", "", "directory for snapshots fetched via /v1/attach (default: OS temp dir)")
	fs.StringVar(&cfg.walDir, "wal-dir", "", "directory of durable update logs: <view>.wal files are replayed over their snapshots at load, then compacted (empty = no WAL recovery)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.join != "" {
		cfg.worker = true
	}
	cfg.snapshots = append([]string(nil), snaps...)
	cfg.snapshots = append(cfg.snapshots, fs.Args()...)
	if len(cfg.snapshots) == 0 && !cfg.worker {
		return cfg, errors.New("usage: cqserve [-addr :8080] -snapshot FILE.cqs [-snapshot ...] | cqserve -join http://coord")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqserve:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cqserve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then drains gracefully.
func run(ctx context.Context, cfg config, logw *os.File) error {
	var joined atomic.Bool
	opts := httpserve.Options{
		FlushBatch: cfg.flushBatch, Mmap: cfg.mmap,
		Admin: cfg.worker, SpoolDir: cfg.spool,
		CacheBytes: cfg.cacheBytes, WALDir: cfg.walDir,
	}
	if cfg.join != "" {
		// A worker that is told to join is not ready until its coordinator
		// has confirmed membership and pushed its shard assignment.
		opts.ReadyGate = joined.Load
	}
	specs := make([]httpserve.SnapshotSpec, len(cfg.snapshots))
	for i, p := range cfg.snapshots {
		specs[i] = httpserve.SnapshotSpec{Path: p}
	}
	h, err := httpserve.NewSpecs(specs, opts)
	if err != nil {
		return err
	}
	var handler http.Handler = h
	if cfg.pprof {
		// The profiling endpoints share the API listener; they are opt-in
		// because they expose internals no production deployment should
		// serve unauthenticated.
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{
		Handler: handler,
		// Request contexts derive from ctx, so cancelling it reaches every
		// in-flight enumeration through its handler's request context.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	// An explicit listener (rather than ListenAndServe) pins the bound
	// address before anything else happens: -addr :0 works, and the
	// advertise URL a coordinator calls back on can be derived from it.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		h.Close()
		return err
	}
	fmt.Fprintf(logw, "cqserve: serving %d snapshot(s) on %s\n", len(cfg.snapshots), ln.Addr())

	// The ctx watcher owns the shutdown half of the lifecycle so Serve
	// can stay a plain blocking call: when the root context fires it
	// drains in-flight handlers (bounded by -drain) and Serve returns
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
		fmt.Fprintln(logw, "cqserve: shutting down")
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cfg.drain)
		defer cancel()
		// Shutdown stops the listener and waits for handlers; the
		// cancelled base context has already cut the streams loose, so
		// this returns as soon as the handlers notice.
		if err := srv.Shutdown(drainCtx); err != nil {
			srv.Close()
		}
	}()
	if cfg.join != "" {
		go func() {
			self := cfg.advertise
			if self == "" {
				self = advertiseURL(ln.Addr())
			}
			if err := joinCoordinator(ctx, cfg.join, self); err != nil {
				fmt.Fprintf(logw, "cqserve: join %s: %v\n", cfg.join, err)
				return
			}
			joined.Store(true)
			fmt.Fprintf(logw, "cqserve: joined %s as %s\n", cfg.join, self)
		}()
	}
	err = srv.Serve(ln)
	close(serveDone)
	<-shutdownDone
	h.Close()
	if errors.Is(err, http.ErrServerClosed) && ctx.Err() != nil {
		return nil // graceful: the watcher closed the listener
	}
	return err
}

// advertiseURL derives the base URL a coordinator can reach this process
// on from the bound listen address: a wildcard host becomes 127.0.0.1,
// which is right for the single-machine and test topologies; multi-host
// deployments pass -advertise explicitly.
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

// joinCoordinator announces this worker to the coordinator, retrying with
// backoff until it succeeds or ctx ends: at startup the coordinator may
// not be listening yet, and join order must not matter.
func joinCoordinator(ctx context.Context, coordURL, selfURL string) error {
	body, err := json.Marshal(map[string]string{"url": selfURL})
	if err != nil {
		return err
	}
	url := strings.TrimRight(coordURL, "/") + "/v1/join"
	delay := 100 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("giving up: %w (last: %v)", ctx.Err(), err)
		case <-time.After(delay):
		}
		if delay < 2*time.Second {
			delay *= 2
		}
	}
}
