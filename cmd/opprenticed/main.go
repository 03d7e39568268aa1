// Command opprenticed serves Opprentice as an HTTP anomaly-detection
// service (see internal/service for the API).
//
// Usage:
//
//	opprenticed -addr :8080
//
// Then, from any HTTP client:
//
//	curl -X PUT localhost:8080/v1/series/pv -d '{"interval_seconds":60,"start":"2015-01-05T00:00:00Z"}'
//	curl -X POST localhost:8080/v1/series/pv/points -d '{"points":[{"value":9213}]}'
//	curl -X POST localhost:8080/v1/series/pv/labels -d '{"windows":[{"start":120,"end":135,"anomalous":true}]}'
//	curl -X POST localhost:8080/v1/series/pv/train
//	curl localhost:8080/v1/series/pv/alarms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"opprentice/internal/engine"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/service"
	"opprentice/internal/tsdb"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataDir   = flag.String("data-dir", "", "directory for durable series logs (empty = memory only)")
		modelDir  = flag.String("model-dir", "", "directory for the versioned model registry (empty = no checkpointing; restarts retrain cold)")
		modelKeep = flag.Int("model-keep", 0, "model generations to retain per series (0 = default 3)")
		shards    = flag.Int("shards", 0, "series registry shards (0 = default; rounded up to a power of two)")
		workers   = flag.Int("retrain-workers", 0, "background retrain workers (0 = default)")
		cacheMB   = flag.Int("extract-cache-mb", 0, "incremental feature-extraction cache cap in MiB, shared by all series (0 = default 256, negative = disabled)")
		inflight  = flag.Int("ingest-inflight", 0, "per-shard in-flight ingest budget in points; batches over it are shed with 429 (0 = default 65536, negative = unlimited)")
		walDL     = flag.Duration("wal-deadline", 0, "how long an append waits for its durable WAL write before the series degrades to threshold-only serving (0 = default 2s, negative = disabled)")
		walSeg    = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 64 MiB)")
		trainDL   = flag.Duration("train-deadline", 0, "training watchdog deadline per round; stalled rounds are abandoned and retried (0 = default 5m, negative = disabled)")
		degradedR = flag.Duration("degraded-recovery", 0, "quiet period before a degraded series recovers full serving (0 = default 30s, negative = sticky until restart)")
		queryBand = flag.Float64("query-band", 0, "uncertainty band around the live cThld within which verdicts become label-query candidates (0 = default 0.1, negative = queries disabled)")
		queryDep  = flag.Int("query-depth", 0, "label-query queue capacity in windows per series (0 = default 8, negative = queries disabled)")
		driftThld = flag.Float64("drift-threshold", 0, "PSI level at which a vote-distribution window counts toward drift; two consecutive arm an early retrain (0 = default 0.25, negative = drift detection disabled)")
		driftWin  = flag.Int("drift-window", 0, "drift histogram window in points (0 = default: one day of the series' points)")
		pprofAddr = flag.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled); kept off the serving listener so profiling is never exposed by default")
		timeout   = flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	// The engine owns all series state and background training; the server is
	// a thin HTTP/JSON adapter over it.
	cfg := engine.Config{
		Log:              logger,
		Shards:           *shards,
		RetrainWorkers:   *workers,
		ExtractCacheMB:   *cacheMB,
		IngestInflight:   *inflight,
		WALDeadline:      *walDL,
		TrainDeadline:    *trainDL,
		DegradedRecovery: *degradedR,
		QueryBand:        *queryBand,
		QueryDepth:       *queryDep,
		DriftThreshold:   *driftThld,
		DriftWindow:      *driftWin,
	}
	if *modelDir != "" {
		models, err := modelreg.Open(modelreg.Config{Dir: *modelDir, Keep: *modelKeep})
		if err != nil {
			logger.Error("open model dir", "err", err)
			os.Exit(1)
		}
		cfg.Models = models
	}
	if *dataDir != "" {
		logs, err := unmigratedLogs(*dataDir)
		if err == nil && len(logs) > 0 {
			err = fmt.Errorf("JSON-lines logs this version does not read: %s; run `opprenticectl wal migrate -data-dir %s` first",
				strings.Join(logs, ", "), *dataDir)
		}
		if err != nil {
			logger.Error("open data dir", "err", err)
			os.Exit(1)
		}
		// A non-positive flag leaves the store's default.
		store, err := tsdb.Open(*dataDir, tsdb.WithSegmentBytes(*walSeg))
		if err != nil {
			logger.Error("open data dir", "err", err)
			os.Exit(1)
		}
		defer store.Close()
		cfg.Store = store
	}
	eng := engine.New(cfg)
	srv := service.NewServerWithEngine(eng, logger)
	if cfg.Store != nil {
		start := time.Now()
		restored, err := srv.Restore()
		if err != nil {
			logger.Error("restore", "err", err)
			os.Exit(1)
		}
		c := eng.Counters()
		logger.Info("restored series from data dir", "count", restored, "dir", *dataDir,
			"warm", c.ModelRestoreWarm, "cold", c.ModelRestoreCold, "took", time.Since(start))
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	if *pprofAddr != "" {
		psrv := &http.Server{Addr: *pprofAddr, Handler: pprofHandler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof serve", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("opprenticed listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
			srv.Close()
			os.Exit(1)
		}
		// Drain pending webhook deliveries, then the deferred store.Close
		// flushes and closes the WAL handles.
		srv.Close()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	}
}

// pprofHandler serves net/http/pprof on a mux of its own, for a listener of
// its own: registering pprof on the serving handler would expose heap dumps
// and CPU profiles to anyone who can reach the API.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// unmigratedLogs names the "<name>.wal" files in dir: per-series JSON-lines
// logs of releases before the segmented WAL. The store would not see them,
// so serving next to one would silently drop that series' points and labels;
// main refuses to start instead. What `opprenticectl wal migrate` leaves
// behind (*.wal.migrated) does not match, nor does anything that is not a
// regular file.
func unmigratedLogs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // tsdb.Open creates it
	}
	if err != nil {
		return nil, err
	}
	var logs []string
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".wal") {
			logs = append(logs, e.Name())
		}
	}
	return logs, nil
}
