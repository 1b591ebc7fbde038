// Command alvc-server runs the AL-VC control plane as an HTTP daemon:
// the network-service form of the paper's Fig. 6 orchestrator. It
// stands up a generated data-center topology and serves the REST API
// of internal/server on -addr.
//
// Usage:
//
//	alvc-server                       # listen on :8080 over the default DCN
//	alvc-server -addr :9000 -racks 16 -ops 48 -uplinks 24
//	alvc-server -wavelengths 8        # enable per-flow WDM assignment
//
// Quick exercise against a running server:
//
//	curl -s -X POST localhost:8080/v1/chains -d '{"name":"c1","tenant":"t1",
//	  "service":"web","nfs":[{"name":"firewall"},{"name":"lb"}],
//	  "bandwidth_gbps":2,"flow_bytes":1048576}'
//	curl -s localhost:8080/metrics   # every count: Prometheus text exposition
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/server"
	"github.com/alvc/alvc/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	racks := flag.Int("racks", 8, "number of racks")
	ops := flag.Int("ops", 24, "optical switches in the core")
	uplinks := flag.Int("uplinks", 16, "OPS uplinks per ToR")
	chords := flag.Int("chords", 2, "extra chord links per OPS")
	dualHome := flag.Float64("dual-home", 0.25, "fraction of PMs wired to a second ToR (1.0 lets every chain plan a disjoint standby)")
	seed := flag.Int64("seed", 1, "topology generator seed")
	wavelengths := flag.Int("wavelengths", 0, "WDM wavelengths per optical link (0 disables)")
	shards := flag.Int("shards", 1, "orchestrator shards (tenant-hashed; each shard owns a disjoint OPS pool)")
	shardMode := flag.String("shard-mode", "tenant", "shard routing key: tenant or chain")
	perRun := flag.Bool("per-run-accounting", false, "score placement by colocation-aware per-run O/E/O accounting (steers placement's choice only)")
	optimize := flag.Bool("optimizer", true, "run the background optimization engine (async re-protection, standby refresh, re-homing, lambda defrag)")
	debounce := flag.Duration("debounce", 0, "failure-report debounce window: POST /v1/failures/* coalesces for this long and repairs once against the union (0 = repair synchronously per request)")
	optTick := flag.Duration("optimizer-tick", 30*time.Second, "idle-tick interval for the optimizer's opportunistic work (0 = event-driven only)")
	rehomeMargin := flag.Int("rehome-margin", 1, "hysteresis: conversions a fresh placement must save before re-homing migrates")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	watchRing := flag.Int("watch-ring", 0, "events retained for /v1/watch Last-Event-ID replay (0 = default 256)")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof on a side listener (e.g. localhost:6060); empty disables")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "unknown -log-format %q (want text or json)\n", *logFormat)
		return 1
	}
	logger := slog.New(handler)

	cfg := alvc.DefaultTopology()
	cfg.Racks = *racks
	cfg.OPSCount = *ops
	cfg.ToRUplinks = *uplinks
	cfg.OPSChords = *chords
	cfg.DualHomeFrac = *dualHome
	cfg.Seed = *seed
	cfg.Services = workload.ServiceNames(workload.DefaultCatalog())

	var opts []alvc.Option
	if *wavelengths > 0 {
		opts = append(opts, alvc.WithWavelengths(*wavelengths))
	}
	if *shards > 1 {
		opts = append(opts, alvc.WithShards(*shards))
	}
	switch *shardMode {
	case "tenant":
		// default routing key; nothing to set
	case "chain":
		opts = append(opts, alvc.WithShardMode(alvc.ShardByChain))
	default:
		logger.Error("unknown -shard-mode (want tenant or chain)", "shard_mode", *shardMode)
		return 1
	}
	if *perRun {
		opts = append(opts, alvc.WithPerRunAccounting())
	}
	if *optimize {
		opts = append(opts, alvc.WithOptimizer(alvc.OptimizerOptions{RehomeMargin: *rehomeMargin}))
	}
	if *debounce > 0 {
		opts = append(opts, alvc.WithFailureDebounce(*debounce))
	}
	arch, err := alvc.New(cfg, opts...)
	if err != nil {
		logger.Error("topology construction failed", "error", err)
		return 1
	}
	defer arch.Close()
	if eng := arch.Optimizer(); eng != nil {
		if err := eng.Start(*optTick); err != nil {
			logger.Error("optimizer start failed", "error", err)
			return 1
		}
	}

	var srvOpts []server.Option
	if !*quiet {
		srvOpts = append(srvOpts, server.WithLogger(logger))
	}
	if *watchRing > 0 {
		srvOpts = append(srvOpts, server.WithWatchRing(*watchRing))
	}
	ctrl, err := server.New(arch, srvOpts...)
	if err != nil {
		logger.Error("server construction failed", "error", err)
		return 1
	}

	// Every request's context derives from base, cancelled just before
	// Shutdown: a /v1/watch stream never goes idle on its own, so its
	// handler must see its context end for Shutdown to finish.
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           ctrl.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return base },
	}

	// Profiling stays off the service port: a dedicated mux on a side
	// listener, so operators can scrape CPU/heap/contention profiles
	// (go tool pprof http://<addr>/debug/pprof/profile) without
	// exposing them to API clients.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	sum := arch.Summarize()
	fmt.Printf("alvc-server listening on %s (%d PMs, %d VMs, %d OPSs, %d services, %d shards)\n",
		*addr, sum.PMs, sum.VMs, sum.OPSs, sum.Services, len(arch.Sharded().ShardStats()))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cancelBase()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "error", err)
			return 1
		}
		return 0
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return 0
		}
		logger.Error("serve failed", "error", err)
		return 1
	}
}
