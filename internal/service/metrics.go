package service

import (
	"net/http"
	"sync/atomic"

	"opprentice/internal/engine"
)

// metrics are the transport layer's own counters. Everything else — ingest,
// training, alarms, WAL health, per-series gauges — is declared in the
// engine's metric table and read through engine.Metrics at scrape time.
type metrics struct {
	requestErrors atomic.Int64
}

// handleMetrics renders the Prometheus text exposition format: the
// transport's one row spliced into the engine's families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = engine.WriteMetrics(w, s.eng.Metrics(engine.Family{
		Name:    "opprenticed_request_errors_total",
		Help:    "Requests answered with a non-2xx status.",
		Samples: []engine.Sample{{Value: float64(s.metrics.requestErrors.Load())}},
	}))
}
