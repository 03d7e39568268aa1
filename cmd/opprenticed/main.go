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
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"opprentice/internal/engine"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/service"
	"opprentice/internal/tsdb"
)

// options are the daemon's command-line settings.
type options struct {
	addr, dataDir, modelDir, pprofAddr string
	modelKeep                          int
	walSegmentBytes                    int64
	shutdownTimeout                    time.Duration
	engine                             engine.Config
}

// parseFlags parses the command line into options. Every numeric flag reads
// zero as its default and has no off mode, so parseFlags refuses a negative
// value, naming the flag, rather than let an old "-1 = disabled" setting
// silently become the default. Errors and usage go to stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := o.flags(stderr)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var negative []string
	fs.Visit(func(f *flag.Flag) {
		v := reflect.ValueOf(f.Value.(flag.Getter).Get())
		if v.CanInt() && v.Int() < 0 || v.CanFloat() && v.Float() < 0 {
			negative = append(negative, "-"+f.Name)
		}
	})
	if len(negative) > 0 {
		err := fmt.Errorf("negative value for %s: 0 selects a flag's default, and no value turns a mechanism off",
			strings.Join(negative, ", "))
		fmt.Fprintln(stderr, err)
		return o, err
	}
	return o, nil
}

// flags defines the daemon's flags over o's fields.
func (o *options) flags(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("opprenticed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.dataDir, "data-dir", "", "directory for durable series logs (empty = memory only)")
	fs.StringVar(&o.modelDir, "model-dir", "", "directory for the versioned model registry (empty = no checkpointing; restarts retrain cold)")
	fs.IntVar(&o.modelKeep, "model-keep", 0, "model generations to retain per series (0 = default 3)")
	fs.IntVar(&o.engine.RetrainWorkers, "retrain-workers", 0, "background retrain workers (0 = default 2)")
	fs.IntVar(&o.engine.ExtractCacheMB, "extract-cache-mb", 0, "incremental feature-extraction cache cap in MiB, shared by all series (0 = default 256)")
	fs.IntVar(&o.engine.IngestInflight, "ingest-inflight", 0, "per-shard in-flight ingest budget in points; batches over it are shed with 429 (0 = default 65536)")
	fs.DurationVar(&o.engine.WALDeadline, "wal-deadline", 0, "how long an append waits for its durable WAL write before the series degrades to threshold-only serving (0 = default 2s)")
	fs.Int64Var(&o.walSegmentBytes, "wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 64 MiB)")
	fs.DurationVar(&o.engine.TrainDeadline, "train-deadline", 0, "training watchdog deadline per round; stalled rounds are abandoned and retried (0 = default 5m)")
	fs.DurationVar(&o.engine.DegradedRecovery, "degraded-recovery", 0, "quiet period before a degraded series recovers full serving (0 = default 30s)")
	fs.Float64Var(&o.engine.QueryBand, "query-band", 0, "uncertainty band around the live cThld within which verdicts become label-query candidates (0 = default 0.1)")
	fs.IntVar(&o.engine.QueryDepth, "query-depth", 0, "label-query queue capacity in windows per series (0 = default 8)")
	fs.Float64Var(&o.engine.DriftThreshold, "drift-threshold", 0, "PSI level at which a vote-distribution window counts toward drift; two consecutive arm an early retrain (0 = default 0.25)")
	fs.IntVar(&o.engine.DriftWindow, "drift-window", 0, "drift histogram window in points (0 = default: one day of the series' points)")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled); kept off the serving listener so profiling is never exposed by default")
	fs.DurationVar(&o.shutdownTimeout, "shutdown-timeout", 10*time.Second, "graceful shutdown budget")
	return fs
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	// The engine owns all series state and background training; the server is
	// a thin HTTP/JSON adapter over it.
	cfg := o.engine
	cfg.Log = logger
	if o.modelDir != "" {
		models, err := modelreg.Open(modelreg.Config{Dir: o.modelDir, Keep: o.modelKeep})
		if err != nil {
			logger.Error("open model dir", "err", err)
			os.Exit(1)
		}
		cfg.Models = models
	}
	if o.dataDir != "" {
		logs, err := unmigratedLogs(o.dataDir)
		if err == nil && len(logs) > 0 {
			err = fmt.Errorf("JSON-lines logs this version does not read: %s; run `opprenticectl wal migrate -data-dir %s` first",
				strings.Join(logs, ", "), o.dataDir)
		}
		if err != nil {
			logger.Error("open data dir", "err", err)
			os.Exit(1)
		}
		// A zero flag leaves the store's default.
		store, err := tsdb.Open(o.dataDir, tsdb.WithSegmentBytes(o.walSegmentBytes))
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
		logger.Info("restored series from data dir", "count", restored, "dir", o.dataDir,
			"warm", c.ModelRestoreWarm, "cold", c.ModelRestoreCold, "took", time.Since(start))
	}
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	if o.pprofAddr != "" {
		psrv := &http.Server{Addr: o.pprofAddr, Handler: pprofHandler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", o.pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof serve", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("opprenticed listening", "addr", o.addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), o.shutdownTimeout)
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
