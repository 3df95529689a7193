// Command lard-server runs the simulation service: an HTTP JSON job API
// over the LLC simulator, backed by a content-addressed result store so a
// given (benchmark, scheme, options) run is simulated at most once.
//
// Usage:
//
//	lard-server [-addr :8347] [-store DIR] [-workers N] [-queue N]
//	            [-max-entries N] [-shards N] [-peer URL]
//	            [-replicate-threshold N] [-replica-capacity N]
//	            [-trace] [-max-traces N] [-telemetry] [-max-timelines N]
//	            [-log-level LEVEL] [-debug-addr ADDR]
//
// Observability:
//
//	-trace       records a span tree per run (admitted -> dispatched ->
//	             queued -> simulating with the simulator's phase
//	             breakdown -> stored), served by GET /v1/runs/{id}/trace
//	             and carried as span ids on the SSE event streams.
//	-telemetry   records an epoch-resolved timeline per run (coherence
//	             counter deltas, cycle components), served by
//	             GET /v1/runs/{id}/timeline and streamed live as epoch
//	             frames on the SSE event streams.
//	-log-level   debug|info|warn|error structured logging (log/slog,
//	             stderr). Run, campaign and span ids ride every record.
//	-debug-addr  serves net/http/pprof on a second, private listener
//	             (e.g. localhost:6060) so profiling never shares a port
//	             with the public API.
//
// An empty -store selects a memory-only store (results do not survive a
// restart). -max-entries bounds the store's in-memory layer with LRU
// eviction (0 = unbounded); with a persistent backend, evicted results
// stay servable from it.
//
// Storage topology:
//
//	-shards N  splits the store directory into N consistent-hashed disk
//	           shards (DIR/shard-00 …), spreading entries across
//	           directories or mounts. Routing is stable, so restarting
//	           with the same N finds every entry again.
//	-peer URL  names another lard-server as the authoritative owner of
//	           the result space: misses fetch from the peer's
//	           /v1/results endpoints, fresh results write through to it,
//	           and entries whose reuse crosses -replicate-threshold are
//	           promoted into this node's own backend (bounded by
//	           -replica-capacity) — the paper's locality-aware
//	           replication, applied to the serving tier. Peering must be
//	           acyclic (hub-and-spoke).
//
// See internal/server for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lard/internal/obs"
	"lard/internal/resultstore"
	"lard/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address")
		storeDir   = flag.String("store", "lard-store", "result store directory (empty = memory only)")
		workers    = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "pending-job queue depth (full queue answers 429)")
		maxEntries = flag.Int("max-entries", 0, "in-memory result bound, LRU-evicted beyond it (0 = unbounded)")
		shards     = flag.Int("shards", 1, "consistent-hashed disk shards under the store directory")
		peer       = flag.String("peer", "", "peer lard-server URL owning the result space (enables locality-aware replication)")
		replThresh = flag.Int("replicate-threshold", 2, "reuse count that earns a peer-owned entry a local replica")
		replCap    = flag.Int("replica-capacity", 4096, "local replica bound, LRU-demoted beyond it (0 = unbounded)")
		trace      = flag.Bool("trace", false, "record a span tree per run, served by GET /v1/runs/{id}/trace")
		maxTraces  = flag.Int("max-traces", 0, "bound on retained traces, oldest-finished evicted beyond it (0 = default 4096)")
		telemetry  = flag.Bool("telemetry", false, "record an epoch timeline per run, served by GET /v1/runs/{id}/timeline")
		maxTimel   = flag.Int("max-timelines", 0, "bound on retained timelines, oldest-finished evicted beyond it (0 = default 256)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		debugAddr  = flag.String("debug-addr", "", "private listener for net/http/pprof (empty = disabled)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	fatal(err)
	logger := obs.NewLogger(os.Stderr, level, "lard-server")
	if *maxTraces != 0 && !*trace {
		fatal(fmt.Errorf("-max-traces requires -trace (there is no trace registry to bound)"))
	}
	if *maxTimel != 0 && !*telemetry {
		fatal(fmt.Errorf("-max-timelines requires -telemetry (there is no timeline registry to bound)"))
	}

	// Silent misconfiguration guard (the PR-2 discipline): a flag that
	// would be ignored is an error, not a shrug — an operator who asked
	// for 4 shards must not end up with an unsharded memory-only store.
	if *storeDir == "" && *shards > 1 {
		fatal(fmt.Errorf("-shards requires -store (an empty store directory has nothing to shard)"))
	}
	if *peer == "" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["replicate-threshold"] || set["replica-capacity"] {
			fatal(fmt.Errorf("-replicate-threshold and -replica-capacity require -peer (there is no owner to replicate from)"))
		}
	}

	st, err := resultstore.Open(resultstore.BackendConfig{
		Dir:                *storeDir,
		Shards:             *shards,
		Peer:               *peer,
		ReplicateThreshold: *replThresh,
		ReplicaCapacity:    *replCap,
		MaxEntries:         *maxEntries,
	})
	fatal(err)
	defer st.Close()
	ob := obs.New(obs.Options{Tracing: *trace, MaxTraces: *maxTraces, Telemetry: *telemetry, MaxTimelines: *maxTimel, Log: logger})
	svc, err := server.New(server.Config{Store: st, Workers: *workers, QueueDepth: *queue, Obs: ob})
	fatal(err)
	svc.Start()

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Submissions and polls are small JSON bodies; a peer that cannot
		// finish its headers in 10 s is stalling a connection slot
		// (slowloris), not simulating.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if *debugAddr != "" {
		// net/http/pprof registers on the default mux; serving it on a
		// second listener keeps profiling endpoints off the public API.
		dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}
	topology := "flat"
	if *shards > 1 {
		topology = fmt.Sprintf("%d shards", *shards)
	}
	if *peer != "" {
		topology += fmt.Sprintf(", replicating from peer %s (threshold %d)", *peer, *replThresh)
	}
	logger.Info("listening", "addr", *addr, "store", *storeDir, "topology", topology, "tracing", *trace, "telemetry", *telemetry, "level", level.String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := svc.Shutdown(shutdownCtx); err != nil {
		logger.Error("worker shutdown", "err", err)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lard-server:", err)
		os.Exit(1)
	}
}
