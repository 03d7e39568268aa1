// Package service exposes Opprentice as an HTTP/JSON anomaly-detection
// service: clients create monitored series, stream points, label anomalous
// windows with the same window semantics as the labeling tool (§4.2), and
// trigger (re)training — the weekly operational loop of Fig. 3 over the
// network.
//
// The package is a thin transport adapter: all series state, the ingest hot
// path, and the asynchronous retrain scheduler live in internal/engine
// (sharded, single-writer per series; see that package and DESIGN.md's
// "Engine layering"). Handlers only decode JSON, call one engine method, and
// encode the result; cmd/opprenticed adds durable storage via the engine's
// Store seam.
//
// API (all JSON):
//
//	GET  /v1/healthz                    liveness
//	GET  /v1/readyz                     readiness (degraded/quarantined series)
//	GET  /v1/series                     list series
//	PUT  /v1/series/{name}              create a series
//	GET  /v1/series/{name}              status
//	POST /v1/series/{name}/points       append points, get verdicts
//	POST /v1/ingest                     streaming bulk ingest (binary frames;
//	                                    see ingest.go and Client.StreamPoints)
//	POST /v1/series/{name}/labels       label/unlabel windows
//	POST /v1/series/{name}/train        (re)train the classifier
//	GET  /v1/series/{name}/alarms       recent alarms
//	GET  /v1/models                     series with published model artifacts
//	GET  /v1/models/{name}              a series' model manifest (generations)
//	POST /v1/models/{name}/rollback     roll the served model back one generation
//	GET  /v1/queries                    pending label queries, most uncertain
//	                                    first (?series= filters to one series)
//	POST /v1/queries/{name}/answer      answer one query ({start, end,
//	                                    anomalous}); applied as a durable label
//	GET  /v1/metrics                    Prometheus text exposition
//
// The /v1/models routes require a model registry (opprenticed -model-dir);
// without one they answer 400.
//
// # Operational metrics
//
// GET /v1/metrics exposes counters and per-series gauges in the Prometheus
// text format (no client library needed). Every family but the transport's
// own request-error counter is declared once, in the engine's metric table
// (engine.Counters, engine.SeriesMetrics); DESIGN.md's "Metrics" table lists
// them with what each one means and where it is incremented.
//
// A non-zero rate on any of these means a dependency is degrading while the
// service keeps running; see DESIGN.md's "Failure modes & degradation".
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"opprentice/internal/engine"
	modelreg "opprentice/internal/registry"
)

// Server is the HTTP adapter over an engine.Engine. Create it with NewServer
// (which builds its own engine) or NewServerWithEngine, and mount Handler on
// an http.Server.
type Server struct {
	eng     *engine.Engine
	log     *slog.Logger
	metrics metrics

	// vbufs pools verdict buffers for the points hot path; the engine
	// appends verdicts into a pooled buffer instead of allocating per
	// request.
	vbufs sync.Pool
}

// The per-endpoint deadlines the server attaches to each request's context
// before calling into the engine; the engine propagates them through its own
// budgets (WAL deadline, training watchdog).
const (
	appendTimeout   = 30 * time.Second // POST points, /v1/ingest frames
	labelTimeout    = 30 * time.Second // POST labels, POST query answers
	trainTimeout    = 10 * time.Minute // synchronous training, the slowest endpoint by far
	statusTimeout   = 5 * time.Second  // the cheap read endpoints
	rollbackTimeout = 2 * time.Minute  // POST rollback hot-swaps a monitor
)

// NewServer returns a service over a fresh default engine.
func NewServer(log *slog.Logger) *Server {
	if log == nil {
		log = slog.Default()
	}
	return NewServerWithEngine(engine.New(engine.Config{Log: log}), log)
}

// NewServerWithEngine returns a service over an engine the caller
// constructed (and owns the configuration of).
func NewServerWithEngine(eng *engine.Engine, log *slog.Logger) *Server {
	if log == nil {
		log = slog.Default()
	}
	s := &Server{eng: eng, log: log}
	s.vbufs.New = func() any {
		buf := make([]engine.Verdict, 0, 256)
		return &buf
	}
	return s
}

// Restore replays every series in the engine's store; see engine.Restore.
// It keeps its context-free signature for callers that restore during boot
// with no deadline to propagate.
func (s *Server) Restore() (int, error) { return s.eng.Restore(context.Background()) }

// Close shuts down the engine: retrain workers stop and pending webhook
// deliveries are given grace before being dropped; call it after
// http.Server.Shutdown so no new events can arrive.
func (s *Server) Close() { s.eng.Close() }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/readyz", s.handleReady)
	mux.HandleFunc("GET /v1/series", s.handleList)
	mux.HandleFunc("PUT /v1/series/{name}", s.handleCreate)
	mux.HandleFunc("GET /v1/series/{name}", s.handleStatus)
	mux.HandleFunc("POST /v1/series/{name}/points", s.handlePoints)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/series/{name}/labels", s.handleLabels)
	mux.HandleFunc("POST /v1/series/{name}/train", s.handleTrain)
	mux.HandleFunc("GET /v1/series/{name}/alarms", s.handleAlarms)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/models/{name}", s.handleModelManifest)
	mux.HandleFunc("POST /v1/models/{name}/rollback", s.handleModelRollback)
	mux.HandleFunc("GET /v1/queries", s.handleQueries)
	mux.HandleFunc("POST /v1/queries/{name}/answer", s.handleAnswerQuery)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	return mux
}

// Wire types. The point/verdict/alarm/status/window shapes are aliases of
// the engine's value types (whose JSON tags are the wire format), so the hot
// path moves data engine→encoder with no conversion copies and the HTTP
// shapes provably cannot drift from the engine's.

// CreateRequest is the body of PUT /v1/series/{name}.
type CreateRequest struct {
	// IntervalSeconds is the sampling interval; it must divide a day.
	IntervalSeconds int `json:"interval_seconds"`
	// Start is the timestamp of the first point (RFC 3339).
	Start time.Time `json:"start"`
	// Recall and Precision form the accuracy preference (default 0.66 each).
	Recall    float64 `json:"recall,omitempty"`
	Precision float64 `json:"precision,omitempty"`
	// Trees is the forest size (default 60).
	Trees int `json:"trees,omitempty"`
	// WebhookURL, when set, receives incident open/resolved events as JSON
	// POSTs (see the alerting package for the payload).
	WebhookURL string `json:"webhook_url,omitempty"`
	// RetrainEvery, when > 0, retrains the classifier automatically after
	// that many new points have been appended since the last training —
	// the paper's weekly incremental retraining, without a cron job. The
	// retrain runs asynchronously on the engine's background workers; the
	// triggering points request returns immediately.
	RetrainEvery int `json:"retrain_every,omitempty"`
	// CThldPredictor selects the dynamic-threshold predictor: "ewma" (the
	// paper's default, also the empty string) or "evt" (POT/GPD extreme-value
	// thresholds).
	CThldPredictor string `json:"cthld_predictor,omitempty"`
	// EVTQ pins the EVT predictor's target exceedance probability per
	// point (0 < q < 1); 0 selects weekly auto-calibration of the risk
	// against the labeled trailing window. Ignored for "ewma".
	EVTQ float64 `json:"evt_q,omitempty"`
}

// Point is one (timestamp, value) observation; Timestamp is optional and,
// when zero, the point is appended at the next slot.
type Point = engine.Point

// PointsRequest is the body of POST points.
type PointsRequest struct {
	Points []Point `json:"points"`
}

// VerdictResponse echoes one classified point.
type VerdictResponse = engine.Verdict

// PointsResponse is the response of POST points.
type PointsResponse struct {
	Appended int               `json:"appended"`
	Total    int               `json:"total"`
	Verdicts []VerdictResponse `json:"verdicts,omitempty"`
	// Persisted is present (and false) only when a durable store is attached
	// and its append failed or is still buffered behind a degraded WAL
	// writer: the points are live in memory and were classified, but a
	// restart right now would lose them.
	Persisted *bool `json:"persisted,omitempty"`
	// Degraded is present (and true) only when the series answered in
	// degraded mode: the verdicts are threshold-only, not the full model's.
	Degraded *bool `json:"degraded,omitempty"`
}

// LabelWindow labels (or clears) the half-open index range [Start, End).
type LabelWindow = engine.Window

// LabelsRequest is the body of POST labels.
type LabelsRequest struct {
	Windows []LabelWindow `json:"windows"`
}

// Status describes one monitored series.
type Status = engine.Status

// ModelManifest is a series' model-registry generation index; the registry
// package's JSON tags are the wire format of GET /v1/models/{name}.
type ModelManifest = modelreg.Manifest

// Alarm is one anomalous verdict the service raised.
type Alarm = engine.Alarm

// Query is one pending label query: a window the live forest was least
// certain about (engine.Query's JSON tags are the wire format).
type Query = engine.Query

// AnswerRequest is the body of POST /v1/queries/{name}/answer: the queried
// window being answered (it must exactly match a pending query) and the
// operator's verdict.
type AnswerRequest struct {
	Start     int  `json:"start"`
	End       int  `json:"end"`
	Anomalous bool `json:"anomalous"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the load-balancer readiness probe: 200 while every series
// serves full-fidelity verdicts, 503 (with Retry-After) while any series is
// degraded or quarantined — the body names them either way.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := s.eng.Ready()
	code := http.StatusOK
	if !ready.Ready {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
	}
	writeJSON(w, code, ready)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"series": s.eng.Names()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.countError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	if err := s.eng.Create(name, engine.SeriesConfig{
		IntervalSeconds: req.IntervalSeconds,
		Start:           req.Start,
		Recall:          req.Recall,
		Precision:       req.Precision,
		Trees:           req.Trees,
		WebhookURL:      req.WebhookURL,
		RetrainEvery:    req.RetrainEvery,
		CThldPredictor:  req.CThldPredictor,
		EVTQ:            req.EVTQ,
	}); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": name})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), statusTimeout)
	defer cancel()
	st, err := s.eng.Status(ctx, r.PathValue("name"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) {
	var req PointsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.countError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), appendTimeout)
	defer cancel()
	bufp := s.vbufs.Get().(*[]engine.Verdict)
	res, err := s.eng.Append(ctx, r.PathValue("name"), req.Points, *bufp)
	if err != nil {
		s.vbufs.Put(bufp)
		s.fail(w, err)
		return
	}
	resp := PointsResponse{
		Appended: res.Appended,
		Total:    res.Total,
		Verdicts: res.Verdicts,
	}
	if !res.Persisted {
		f := false
		resp.Persisted = &f
	}
	if res.Degraded {
		t := true
		resp.Degraded = &t
	}
	writeJSON(w, http.StatusOK, resp)
	// Return the (possibly grown) buffer to the pool only after encoding.
	*bufp = res.Verdicts
	s.vbufs.Put(bufp)
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	var req LabelsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.countError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), labelTimeout)
	defer cancel()
	res, err := s.eng.Label(ctx, r.PathValue("name"), req.Windows)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{
		"anomalous_points": res.AnomalousPoints,
		"labeled_windows":  res.LabeledWindows,
	})
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), trainTimeout)
	defer cancel()
	res, err := s.eng.Train(ctx, r.PathValue("name"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trained_at": res.TrainedAt,
		"cthld":      res.CThld,
		"points":     res.Points,
	})
}

func (s *Server) handleAlarms(w http.ResponseWriter, r *http.Request) {
	var since time.Time
	if q := r.URL.Query().Get("since"); q != "" {
		t, err := time.Parse(time.RFC3339, q)
		if err != nil {
			s.countError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
		since = t
	}
	alarms, err := s.eng.Alarms(r.PathValue("name"), since)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]Alarm{"alarms": alarms})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names, err := s.eng.ModelSeries()
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"series": names})
}

func (s *Server) handleModelManifest(w http.ResponseWriter, r *http.Request) {
	man, err := s.eng.ModelManifest(r.PathValue("name"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, man)
}

func (s *Server) handleModelRollback(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rollbackTimeout)
	defer cancel()
	man, err := s.eng.RollbackModel(ctx, r.PathValue("name"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, man)
}

// handleQueries lists pending label queries, most uncertain first; the
// optional ?series= parameter narrows to one series (404 if unknown).
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), statusTimeout)
	defer cancel()
	qs, err := s.eng.Queries(ctx, r.URL.Query().Get("series"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]Query{"queries": qs})
}

// handleAnswerQuery resolves one pending query as a durable label action; a
// window that does not exactly match a pending query answers 422.
func (s *Server) handleAnswerQuery(w http.ResponseWriter, r *http.Request) {
	var req AnswerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.countError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), labelTimeout)
	defer cancel()
	res, err := s.eng.AnswerQuery(ctx, r.PathValue("name"), req.Start, req.End, req.Anomalous)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{
		"anomalous_points": res.AnomalousPoints,
		"labeled_windows":  res.LabeledWindows,
	})
}

// Retry-After guidance, in seconds, for the two transient failure classes:
// an overload shed clears as soon as in-flight work drains (retry quickly),
// a stall or timeout means something is wedged (give it longer).
const (
	retryAfterOverload = 1
	retryAfterStall    = 5
)

// fail writes the uniform error body with err's status (statusOf). Overload
// sheds (429) and stalls/timeouts (503) carry a Retry-After so well-behaved
// clients back off instead of hammering a struggling node.
func (s *Server) fail(w http.ResponseWriter, err error) {
	code := statusOf(err)
	switch code {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterOverload))
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterStall))
	}
	s.countError(w, code, err)
}

// statusOf maps an engine error kind to its HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, engine.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrExists):
		return http.StatusConflict
	case errors.Is(err, engine.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrRejected):
		return http.StatusUnprocessableEntity
	case errors.Is(err, engine.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, engine.ErrStalled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// countError bumps the error counter; handlers call writeError via the
// server when they want accounting.
func (s *Server) countError(w http.ResponseWriter, code int, err error) {
	s.metrics.requestErrors.Add(1)
	writeError(w, code, err)
}
