package service

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"opprentice/internal/alerting"
)

// metrics are the transport layer's own counters. Everything else — ingest,
// training, alarms, WAL health, per-series gauges — lives in the engine and
// is read via engine.Counters / engine.MetricsSnapshot at scrape time.
type metrics struct {
	requestErrors atomic.Int64
}

// handleMetrics renders the Prometheus text exposition format. Only
// first-party counters and per-series gauges are exposed; no external
// client library is needed for this subset of the format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	writeCounter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	c := s.eng.Counters()
	writeCounter("opprenticed_points_ingested_total", "Points appended across all series.", c.PointsIngested)
	writeCounter("opprenticed_alarms_raised_total", "Anomalous verdicts across all series.", c.AlarmsRaised)
	writeCounter("opprenticed_trainings_total", "Classifier (re)trainings across all series.", c.TrainingsRun)
	writeCounter("opprenticed_request_errors_total", "Requests answered with a non-2xx status.", s.metrics.requestErrors.Load())
	writeCounter("opprenticed_detector_panics_total", "Detector configuration panics sandboxed into degraded features.", c.DetectorPanics)
	writeCounter("opprenticed_wal_quarantined_total", "Corrupt series logs quarantined during restore.", c.WALQuarantined)
	writeCounter("opprenticed_wal_append_errors_total", "Durable appends that failed; the affected points are live in memory only.", c.WALAppendErrors)
	fmt.Fprintf(w, "# HELP opprenticed_training_seconds_total Cumulative training wall time.\n# TYPE opprenticed_training_seconds_total counter\nopprenticed_training_seconds_total %.3f\n",
		c.TrainingSeconds)

	// Model registry: publish/restore/rollback outcomes and restart cost.
	writeCounter("opprenticed_model_publish_total", "Model artifacts published to the registry.", c.ModelPublishes)
	writeCounter("opprenticed_model_publish_errors_total", "Model artifact publications that failed.", c.ModelPublishErrors)
	fmt.Fprintf(w, "# HELP opprenticed_model_restore_total Series restored at startup, by mode (warm = published artifact, cold = synchronous retrain).\n# TYPE opprenticed_model_restore_total counter\n")
	fmt.Fprintf(w, "opprenticed_model_restore_total{mode=\"warm\"} %d\n", c.ModelRestoreWarm)
	fmt.Fprintf(w, "opprenticed_model_restore_total{mode=\"cold\"} %d\n", c.ModelRestoreCold)
	writeCounter("opprenticed_model_checksum_failures_total", "Model artifacts or manifests that failed validation and were quarantined.", c.ModelChecksumFailures)
	writeCounter("opprenticed_model_rollbacks_total", "Explicit model rollbacks.", c.ModelRollbacks)
	fmt.Fprintf(w, "# HELP opprenticed_restore_seconds Wall time of the last restore pass.\n# TYPE opprenticed_restore_seconds gauge\nopprenticed_restore_seconds %.3f\n",
		c.RestoreSeconds)

	// Overload and supervision (DESIGN.md §11): admission sheds,
	// degraded-mode transitions, buffered/lost WAL points, and watchdog
	// activity on the training workers.
	writeCounter("opprenticed_ingest_sheds_total", "Point batches shed whole by admission control (HTTP 429).", c.IngestSheds)
	writeCounter("opprenticed_degraded_entered_total", "Series transitions into degraded (threshold-only) serving.", c.DegradedEntered)
	writeCounter("opprenticed_degraded_recovered_total", "Series recoveries out of degraded serving.", c.DegradedRecovered)
	writeCounter("opprenticed_wal_buffered_points_total", "Points written to the WAL without awaiting the commit while their series was degraded.", c.WALBufferedPoints)
	writeCounter("opprenticed_wal_lost_points_total", "Points dropped from the log because the store could not take them or the series had too many uncommitted points in flight.", c.WALLostPoints)
	writeCounter("opprenticed_train_stalls_total", "Training/publish rounds abandoned by the watchdog.", c.TrainStalls)
	writeCounter("opprenticed_train_retries_total", "Watchdog-driven retrain retries.", c.TrainRetries)
	writeCounter("opprenticed_series_quarantined_total", "Series whose training was quarantined after repeated failures.", c.SeriesQuarantined)
	writeCounter("opprenticed_worker_panics_total", "Recovered panics in supervised background workers.", c.WorkerPanics)
	ready := s.eng.Ready()
	fmt.Fprintf(w, "# HELP opprenticed_series_degraded Series currently in degraded (threshold-only) serving.\n# TYPE opprenticed_series_degraded gauge\nopprenticed_series_degraded %d\n", len(ready.Degraded))
	fmt.Fprintf(w, "# HELP opprenticed_series_quarantined Series whose training is currently quarantined.\n# TYPE opprenticed_series_quarantined gauge\nopprenticed_series_quarantined %d\n", len(ready.Quarantined))

	// Incremental feature-extraction cache: work done per mode, current
	// footprint, and whole-cache invalidations.
	fmt.Fprintf(w, "# HELP opprenticed_extract_points_total Point-by-configuration severity computations during training extraction, by mode.\n# TYPE opprenticed_extract_points_total counter\n")
	fmt.Fprintf(w, "opprenticed_extract_points_total{mode=\"cold\"} %d\n", c.ExtractPointsCold)
	fmt.Fprintf(w, "opprenticed_extract_points_total{mode=\"incremental\"} %d\n", c.ExtractPointsIncremental)
	fmt.Fprintf(w, "# HELP opprenticed_extract_cache_bytes Current feature-extraction cache footprint across all series.\n# TYPE opprenticed_extract_cache_bytes gauge\nopprenticed_extract_cache_bytes %d\n", c.ExtractCacheBytes)
	writeCounter("opprenticed_extract_cache_invalidations_total", "Whole-cache invalidations (prefix mismatch, configuration change, cap overflow).", c.ExtractCacheInvalidated)

	// Active learning (DESIGN.md §14): answered label queries and retrains
	// armed by the concept-drift detector ahead of the fixed tick.
	writeCounter("opprenticed_queries_answered_total", "Label queries answered via POST /v1/queries/{series}/answer.", c.QueriesAnswered)
	writeCounter("opprenticed_drift_retrains_total", "Retrains armed by the concept-drift detector before the retrain tick.", c.DriftRetrains)

	// Per-series gauges + notification pipeline counters.
	snaps := s.eng.MetricsSnapshot()
	var notify alerting.Stats
	for _, sn := range snaps {
		notify.Enqueued += sn.Notify.Enqueued
		notify.Delivered += sn.Notify.Delivered
		notify.Retried += sn.Notify.Retried
		notify.Dropped += sn.Notify.Dropped
	}
	writeCounter("opprenticed_notify_delivered_total", "Incident events acknowledged by notifiers.", notify.Delivered)
	writeCounter("opprenticed_notify_retries_total", "Incident delivery attempts beyond each event's first.", notify.Retried)
	writeCounter("opprenticed_notify_dropped_total", "Incident events dropped (queue full, max attempts, shutdown).", notify.Dropped)
	fmt.Fprintf(w, "# HELP opprenticed_series_points Points stored per series.\n# TYPE opprenticed_series_points gauge\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "opprenticed_series_points{series=%q} %d\n", sn.Name, sn.Points)
	}
	fmt.Fprintf(w, "# HELP opprenticed_series_labeled_windows Labeled anomalous windows per series.\n# TYPE opprenticed_series_labeled_windows gauge\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "opprenticed_series_labeled_windows{series=%q} %d\n", sn.Name, sn.LabeledWindows)
	}
	fmt.Fprintf(w, "# HELP opprenticed_series_cthld Current classification threshold per trained series.\n# TYPE opprenticed_series_cthld gauge\n")
	for _, sn := range snaps {
		if sn.Trained {
			fmt.Fprintf(w, "opprenticed_series_cthld{series=%q} %.4f\n", sn.Name, sn.CThld)
		}
	}
	fmt.Fprintf(w, "# HELP opprenticed_series_degraded_detectors Detector configurations currently sandboxed (dead) per trained series.\n# TYPE opprenticed_series_degraded_detectors gauge\n")
	for _, sn := range snaps {
		if sn.Trained {
			fmt.Fprintf(w, "opprenticed_series_degraded_detectors{series=%q} %d\n", sn.Name, sn.DegradedDetectors)
		}
	}
	fmt.Fprintf(w, "# HELP opprenticed_query_queue_depth Pending label queries per series.\n# TYPE opprenticed_query_queue_depth gauge\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "opprenticed_query_queue_depth{series=%q} %d\n", sn.Name, sn.PendingQueries)
	}
	fmt.Fprintf(w, "# HELP opprenticed_drift_score PSI of the last completed drift comparison window per series.\n# TYPE opprenticed_drift_score gauge\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "opprenticed_drift_score{series=%q} %.4f\n", sn.Name, sn.DriftScore)
	}
}
