// Package engine is the transport-agnostic heart of the anomaly-detection
// service: a sharded registry of monitored KPI series, the single-writer
// ingest path (append → Monitor.Step → alarm ring → WAL → incident fan-out),
// label management, and an asynchronous retrain scheduler implementing the
// paper's weekly incremental loop (§3.2, Fig. 3) without ever blocking
// ingest.
//
// internal/service is a thin HTTP/JSON adapter over this package; the engine
// itself knows nothing about HTTP and is fully exercisable (and benchmarked)
// in-process. Persistence is behind the small Store interface, satisfied by
// *tsdb.Store, so storage faults are injectable in tests.
//
// # Concurrency model
//
//   - The registry is split into N shards keyed by FNV-1a of the series
//     name; a shard's RWMutex only guards its map, so lookups from parallel
//     clients touch disjoint locks.
//   - Each series has one mutex and a single-writer discipline: every
//     mutation of the series data, labels, monitor pointer, or alarm ring
//     happens under that mutex, and WAL appends are issued under it too, so
//     the log order always matches the in-memory order.
//   - Retraining never runs under the series mutex. A training round clones
//     the series and labels (a cheap memcpy snapshot), fits a replacement
//     core.Monitor off to the side, then re-acquires the mutex only to
//     replay the points that arrived mid-train and swap the monitor pointer.
//     Ingest therefore proceeds at full speed during a retrain, and every
//     appended point receives exactly one verdict — from whichever monitor
//     was live at append time.
package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opprentice/internal/active"
	"opprentice/internal/alerting"
	"opprentice/internal/core"
	"opprentice/internal/detectors"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
	"opprentice/internal/tsdb"
)

// Store is the persistence seam between the engine and the write-ahead log.
// *tsdb.Store satisfies it; tests substitute failing or stalling fakes.
type Store interface {
	// Submit enqueues one durable write in call order and returns at once;
	// done reports the commit result exactly once unless Submit itself
	// returns an error (see tsdb.Store.Submit for the full contract).
	Submit(ctx context.Context, rec tsdb.Record, done func(error)) error
	List() ([]string, error)
	Load(name string) (*tsdb.Loaded, error)
	Quarantine(name string) (string, error)
}

var _ Store = (*tsdb.Store)(nil)

// Sentinel error kinds. Engine errors wrap exactly one of these so
// transports can map them to status codes without string matching; the
// human-readable message is unchanged by the wrapping.
var (
	// ErrNotFound: the named series does not exist.
	ErrNotFound = errors.New("series not found")
	// ErrExists: create collided with an existing series.
	ErrExists = errors.New("series already exists")
	// ErrInvalid: the request itself is malformed (HTTP 400 class).
	ErrInvalid = errors.New("invalid request")
	// ErrRejected: the request is well-formed but inapplicable to the
	// series' current state (HTTP 422 class): out-of-order timestamps,
	// out-of-range label windows, untrainable history.
	ErrRejected = errors.New("request rejected")
	// ErrOverloaded: admission control shed the request because the
	// per-shard in-flight ingest budget is exhausted (HTTP 429 class). The
	// shed is atomic — nothing was appended, no verdict was issued — so the
	// client can simply retry after backing off.
	ErrOverloaded = errors.New("engine overloaded")
	// ErrStalled: a supervised worker (training, publish) blew its deadline
	// and was abandoned by the watchdog (HTTP 503 class). The previous model
	// keeps serving; the operation is retried in the background.
	ErrStalled = errors.New("operation stalled past its deadline")
)

// kindError tags an error with a sentinel kind while keeping the original
// message (errors.Is sees both; Error() shows only the cause).
type kindError struct {
	kind  error
	cause error
}

func (e *kindError) Error() string   { return e.cause.Error() }
func (e *kindError) Unwrap() []error { return []error{e.kind, e.cause} }

func invalidf(format string, args ...any) error {
	return &kindError{kind: ErrInvalid, cause: fmt.Errorf(format, args...)}
}

func rejectedf(format string, args ...any) error {
	return &kindError{kind: ErrRejected, cause: fmt.Errorf(format, args...)}
}

func rejected(err error) error { return &kindError{kind: ErrRejected, cause: err} }

func notFound(name string) error {
	return &kindError{kind: ErrNotFound, cause: fmt.Errorf("no series %q", name)}
}

func overloadedf(format string, args ...any) error {
	return &kindError{kind: ErrOverloaded, cause: fmt.Errorf(format, args...)}
}

func stalledf(format string, args ...any) error {
	return &kindError{kind: ErrStalled, cause: fmt.Errorf(format, args...)}
}

// Config configures New. Zero values pick production defaults.
type Config struct {
	// Log receives operational events (default slog.Default).
	Log *slog.Logger
	// Shards is the series-registry shard count (default 16, rounded up to a
	// power of two).
	Shards int
	// MaxAlarms bounds each series' in-memory alarm ring (default 1024).
	MaxAlarms int
	// Registry builds the detector set for (re)training; overridable for
	// fault injection (default detectors.Registry).
	Registry func(time.Duration) ([]detectors.Detector, error)
	// Notify tunes the per-series async webhook delivery pipelines.
	Notify alerting.PipelineConfig
	// Store, when non-nil, makes the engine durable (see SetStore).
	Store Store
	// RetrainWorkers is the number of background training workers shared by
	// all series (default 2).
	RetrainWorkers int
	// ExtractCacheMB caps the engine-wide incremental feature-extraction
	// cache, in MiB, shared by all series (default 256). A series' cache
	// makes its weekly retrain extraction O(new points) instead of O(full
	// history); when the shared cap is exceeded the overflowing cache is
	// invalidated wholesale and that series retrains cold. Negative disables
	// caching entirely.
	ExtractCacheMB int
	// Models, when non-nil, is the model-artifact registry (see SetModels):
	// trained models are published to it asynchronously and Restore prefers
	// warm starts from its artifacts over cold retraining.
	Models *modelreg.Registry
	// RestoreWorkers bounds the parallelism of Restore's per-series pass
	// (default min(8, GOMAXPROCS)).
	RestoreWorkers int
	// Notifier, when non-nil, builds the per-series incident notifier from the
	// series' webhook URL; the default is an HTTP alerting.WebhookNotifier.
	// Tests and the simulation harness substitute in-process recorders here so
	// the whole alert path runs without a network.
	Notifier func(series, webhookURL string) alerting.Notifier
	// Hooks receive lifecycle completion callbacks (see Hooks). All fields are
	// optional.
	Hooks Hooks

	// IngestInflight bounds the points concurrently inside Append per shard
	// (default 65536). A batch that would exceed the budget is shed whole
	// with an ErrOverloaded-wrapped error before any mutation. Negative
	// disables admission control.
	IngestInflight int
	// WALDeadline bounds how long an Append or Label waits for its durable
	// write (default 2s). A write that blows the budget flips the series
	// into degraded mode: verdicts become threshold-only, WAL records are
	// submitted without waiting for their commit, and the append reports
	// Persisted=false. Negative disables the deadline (waits forever).
	WALDeadline time.Duration
	// TrainDeadline bounds one training/publish round (default 5m). A round
	// that blows it is abandoned by the watchdog with an ErrStalled-wrapped
	// error; the live monitor is untouched and automatic retrains back off
	// and retry. Negative disables the watchdog.
	TrainDeadline time.Duration
	// DegradedRecovery is the hysteresis window for leaving degraded mode
	// (default 30s): a series recovers only after it has seen no slow or
	// failed write for this long and has no write in flight. Negative makes
	// degraded mode sticky until restart.
	DegradedRecovery time.Duration
	// TrainRetries is how many times an automatic retrain that stalled or
	// failed is retried with exponential backoff before giving up for that
	// trigger (default 3).
	TrainRetries int
	// TrainFailLimit quarantines a series' training after this many
	// consecutive failed automatic rounds (default 5): the old model keeps
	// serving, automatic retrains stop, and a successful manual Train
	// lifts the quarantine.
	TrainFailLimit int

	// Active-learning knobs (see internal/active). QueryBand is the
	// uncertainty band around the live cThld within which a trained verdict
	// becomes a label-query candidate (default 0.1); QueryDepth is the
	// per-series queue capacity in windows (default 8). Negative values
	// disable the query queue.
	QueryBand  float64
	QueryDepth int
	// DriftThreshold is the PSI level at which a vote-fraction distribution
	// window counts toward drift (default 0.25; two consecutive windows at
	// or above it arm an early retrain). Negative disables drift detection.
	DriftThreshold float64
	// DriftWindow is the histogram window in points (default: one day of
	// the series' points, floored at active.MinDriftWindow).
	DriftWindow int
}

// Hooks are optional lifecycle callbacks for observers that need completion
// edges rather than polling: tests, the simulation harness, and metrics
// exporters. Callbacks run on engine worker goroutines (or the caller's for
// synchronous entry points) and must be cheap and non-blocking; they must not
// call back into the engine.
type Hooks struct {
	// TrainDone fires after every training round — synchronous Train calls,
	// automatic retrains, and cold restores alike — with the round's result
	// (zero on failure) and error.
	TrainDone func(series string, res TrainResult, err error)
	// PublishDone fires after every model-publication attempt that wrote an
	// artifact (err == nil, gen is its generation) or failed (err != nil).
	// No-op publish checks (nothing new to publish) do not fire.
	PublishDone func(series string, gen uint64, err error)
}

// Engine owns all monitored series and the ingest/train/label/status
// operations over them. Create it with New; Close it to stop the retrain
// workers and drain the notification pipelines.
type Engine struct {
	shards    []shard
	shardMask uint32

	log       *slog.Logger
	store     Store
	maxAlarms int
	registry  func(time.Duration) ([]detectors.Detector, error)
	notifyCfg alerting.PipelineConfig
	notifier  func(series, webhookURL string) alerting.Notifier
	hooks     Hooks

	// models is the model-artifact registry; nil when checkpointing is
	// disabled. restoreWorkers bounds Restore's parallel per-series pass.
	models         *modelreg.Registry
	restoreWorkers int

	// cacheBudget is the shared accounting for all series' feature caches;
	// nil when caching is disabled.
	cacheBudget *core.CacheBudget

	// activeCfg templates each series' active-learning state; the per-series
	// DriftWindow default (one day of points) is resolved at attach time.
	activeCfg active.Config

	// Resilience knobs; zero means disabled after New's resolution. The two
	// deadlines are atomic nanosecond values so tests can retune them at
	// runtime (Set* methods).
	ingestInflight   int64 // per-shard admission budget in points; 0 = unlimited
	walDeadline      atomic.Int64
	trainDeadline    atomic.Int64
	degradedRecovery time.Duration
	trainRetries     int
	trainFailLimit   int

	met metricSet[atomic.Int64]

	trainQ    chan *managed
	pubQ      chan *managed
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// retrainQueue bounds the pending automatic-retrain queue and the pending
// publish queue. When the retrain queue is full a trigger is dropped and
// re-armed by the next append.
const retrainQueue = 64

type shard struct {
	mu     sync.RWMutex
	series map[string]*managed

	// createMu serializes Create calls on the shard, so a name is checked,
	// made durable and published without a second Create interleaving, while
	// lookups (which take only mu) never wait on the disk.
	createMu sync.Mutex

	// inflight is the admission-control gauge: points currently inside
	// Append for this shard's series. Reserved before any mutation,
	// released when the call returns.
	inflight atomic.Int64
}

// managed is one KPI under management. All fields after mu are guarded by
// it; trainMu serializes training rounds and is never acquired while mu is
// held.
type managed struct {
	name string

	mu     sync.Mutex
	series *timeseries.Series
	labels timeseries.Labels
	// typed is the per-point anomaly-class channel parallel to labels
	// (core.AnomalyClass wire codes). It stays nil until the first typed
	// label arrives — mirroring tsdb.Loaded.Types — so untyped series pay
	// nothing for the feature.
	typed         []uint8
	pref          stats.Preference
	trees         int
	predKind      core.PredictorKind
	evtQ          float64
	monitor       *core.Monitor
	vbatch        []core.Verdict // reusable StepBatch output (guarded by mu)
	alarms        alarmRing
	trained       time.Time
	pointsAtTrain int
	retrainEvery  int
	incident      *alerting.Manager  // nil without a webhook
	pipeline      *alerting.Pipeline // nil without a webhook; async delivery

	trainMu  sync.Mutex  // serializes snapshot→fit→swap rounds
	training atomic.Bool // an automatic retrain is queued or in flight

	// publishedAt is the trained-at time of the last model published to the
	// registry (guarded by mu); pubMu serializes publish rounds and
	// publishArmed coalesces queued publish triggers like training does.
	publishedAt  time.Time
	pubMu        sync.Mutex
	publishArmed atomic.Bool

	// active is the series' label-query queue and drift detector (guarded
	// by mu; nil when both are disabled). Its Observe call rides the
	// trained append path and must stay allocation-free.
	active *active.State

	// featCache checkpoints extraction state across training rounds so
	// retrains extract only newly appended points (nil when caching is
	// disabled). Only touched inside training rounds, serialized by trainMu;
	// the cache carries its own mutex besides.
	featCache *core.FeatureCache

	// Durable-write accounting: records submitted to the store and not yet
	// committed, and the points they hold. Raised under mu at submission (so
	// log order matches append order), lowered by the store's completion
	// callback, which never takes mu.
	walWrites atomic.Int64
	walPoints atomic.Int64

	// Degraded-mode state (guarded by mu). While degraded the monitor is
	// not stepped: verdicts come from the threshold-only scorer, appended
	// values accumulate in pending, and recovery replays pending through
	// the real monitor (verdicts discarded, exactly like the retrain
	// replay) so the monitor state converges bit-identically with a
	// never-degraded run.
	degraded      bool
	degradedSince time.Time
	degradedCThld float64
	scorer        degradeScorer
	pending       []float64

	// lastViolation is the unix-nano time of the last slow WAL commit or
	// deadline miss; recovery hysteresis keys off it.
	lastViolation atomic.Int64

	// Training supervision: consecutive failed automatic rounds, and the
	// quarantine latch that stops automatic retrains after too many (the
	// old model keeps serving; a successful manual Train clears it).
	trainFails  atomic.Int32
	quarantined atomic.Bool
}

// New returns an engine with no series and its retrain workers running.
func New(cfg Config) *Engine {
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.MaxAlarms <= 0 {
		cfg.MaxAlarms = 1024
	}
	if cfg.Registry == nil {
		cfg.Registry = detectors.Registry
	}
	if cfg.Notify.Log == nil {
		cfg.Notify.Log = cfg.Log
	}
	if cfg.RetrainWorkers <= 0 {
		cfg.RetrainWorkers = 2
	}
	if cfg.ExtractCacheMB == 0 {
		cfg.ExtractCacheMB = 256
	}
	if cfg.RestoreWorkers <= 0 {
		cfg.RestoreWorkers = runtime.GOMAXPROCS(0)
		if cfg.RestoreWorkers > 8 {
			cfg.RestoreWorkers = 8
		}
	}
	var budget *core.CacheBudget
	if cfg.ExtractCacheMB > 0 {
		budget = core.NewCacheBudget(int64(cfg.ExtractCacheMB) << 20)
	}
	// Resilience knobs: zero picks the default, negative disables.
	resolve := func(v, def time.Duration) time.Duration {
		if v == 0 {
			return def
		}
		if v < 0 {
			return 0
		}
		return v
	}
	if cfg.IngestInflight == 0 {
		cfg.IngestInflight = 1 << 16
	}
	if cfg.IngestInflight < 0 {
		cfg.IngestInflight = 0
	}
	if cfg.TrainRetries == 0 {
		cfg.TrainRetries = 3
	}
	if cfg.TrainRetries < 0 {
		cfg.TrainRetries = 0
	}
	if cfg.TrainFailLimit == 0 {
		cfg.TrainFailLimit = 5
	}
	if cfg.TrainFailLimit < 0 {
		cfg.TrainFailLimit = 0
	}
	if cfg.Notifier == nil {
		cfg.Notifier = func(_, webhookURL string) alerting.Notifier {
			return alerting.WebhookNotifier{URL: webhookURL}
		}
	}
	e := &Engine{
		shards:         make([]shard, n),
		shardMask:      uint32(n - 1),
		log:            cfg.Log,
		store:          cfg.Store,
		maxAlarms:      cfg.MaxAlarms,
		registry:       cfg.Registry,
		notifyCfg:      cfg.Notify,
		notifier:       cfg.Notifier,
		hooks:          cfg.Hooks,
		models:         cfg.Models,
		restoreWorkers: cfg.RestoreWorkers,
		cacheBudget:    budget,
		ingestInflight: int64(cfg.IngestInflight),
		trainRetries:   cfg.TrainRetries,
		trainFailLimit: cfg.TrainFailLimit,
		trainQ:         make(chan *managed, retrainQueue),
		pubQ:           make(chan *managed, retrainQueue),
		stop:           make(chan struct{}),
	}
	e.activeCfg = active.Config{
		Band:           cfg.QueryBand,
		Depth:          cfg.QueryDepth,
		DriftThreshold: cfg.DriftThreshold,
		DriftWindow:    cfg.DriftWindow,
	}
	e.walDeadline.Store(int64(resolve(cfg.WALDeadline, 2*time.Second)))
	e.trainDeadline.Store(int64(resolve(cfg.TrainDeadline, 5*time.Minute)))
	e.degradedRecovery = resolve(cfg.DegradedRecovery, 30*time.Second)
	for i := range e.shards {
		e.shards[i].series = make(map[string]*managed)
	}
	e.wg.Add(cfg.RetrainWorkers)
	for i := 0; i < cfg.RetrainWorkers; i++ {
		go e.retrainWorker()
	}
	e.wg.Add(1)
	go e.publishWorker()
	return e
}

// shardFor hashes a series name onto its shard (FNV-1a).
func (e *Engine) shardFor(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &e.shards[h.Sum32()&e.shardMask]
}

// lookup returns the managed series or a not-found error.
func (e *Engine) lookup(name string) (*managed, error) {
	sh := e.shardFor(name)
	sh.mu.RLock()
	m := sh.series[name]
	sh.mu.RUnlock()
	if m == nil {
		return nil, notFound(name)
	}
	return m, nil
}

// SetStore makes the engine durable: every create/points/labels mutation is
// appended to the store's per-series write-ahead log. Call Restore after it
// to reload existing logs. Must be called before traffic.
func (e *Engine) SetStore(store Store) { e.store = store }

// SetDetectorRegistry replaces the detector-set factory used by training.
// Intended for tests and fault injection; call it before any series is
// trained.
func (e *Engine) SetDetectorRegistry(fn func(time.Duration) ([]detectors.Detector, error)) {
	if fn != nil {
		e.registry = fn
	}
}

// SetNotifyConfig tunes the asynchronous webhook delivery pipelines created
// for series from then on. Call it before creating or restoring series.
func (e *Engine) SetNotifyConfig(cfg alerting.PipelineConfig) {
	if cfg.Log == nil {
		cfg.Log = e.log
	}
	e.notifyCfg = cfg
}

// SeriesConfig describes a series to create.
type SeriesConfig struct {
	// IntervalSeconds is the sampling interval; it must divide a day.
	IntervalSeconds int
	// Start is the timestamp of the first point.
	Start time.Time
	// Recall and Precision form the accuracy preference (default 0.66 each).
	Recall, Precision float64
	// Trees is the forest size (default 60).
	Trees int
	// WebhookURL, when set, receives incident open/resolved events.
	WebhookURL string
	// RetrainEvery, when > 0, schedules an asynchronous retrain after that
	// many new points since the last training.
	RetrainEvery int
	// CThldPredictor selects the cThld prediction strategy: "" or "ewma"
	// for the paper's EWMA predictor (§4.5.2), "evt" for the POT/GPD
	// dynamic predictor re-fitted at every retrain.
	CThldPredictor string
	// EVTQ pins the EVT predictor's target exceedance risk (0 < q < 1);
	// 0 selects weekly auto-calibration of the risk against the labeled
	// trailing window. Ignored for the EWMA predictor.
	EVTQ float64
}

// Create registers a new series. It returns an ErrInvalid-wrapped error for
// malformed parameters and an ErrExists-wrapped error on name collision.
func (e *Engine) Create(name string, cfg SeriesConfig) error {
	interval := time.Duration(cfg.IntervalSeconds) * time.Second
	if interval <= 0 || timeseries.Day%interval != 0 {
		return invalidf("interval %v must divide a day", interval)
	}
	if cfg.Start.IsZero() {
		return invalidf("start timestamp required")
	}
	pref := stats.Preference{Recall: cfg.Recall, Precision: cfg.Precision}
	if pref == (stats.Preference{}) {
		pref = stats.Preference{Recall: 0.66, Precision: 0.66}
	}
	trees := cfg.Trees
	if trees <= 0 {
		trees = 60
	}
	predKind, ok := core.ParsePredictorKind(cfg.CThldPredictor)
	if !ok {
		return invalidf("unknown cthld predictor %q (want ewma or evt)", cfg.CThldPredictor)
	}
	if cfg.EVTQ < 0 || cfg.EVTQ >= 1 {
		return invalidf("evt q %g out of range (0, 1)", cfg.EVTQ)
	}
	m := &managed{
		name:         name,
		series:       timeseries.New(name, cfg.Start.UTC(), interval),
		pref:         pref,
		trees:        trees,
		predKind:     predKind,
		evtQ:         cfg.EVTQ,
		retrainEvery: cfg.RetrainEvery,
		alarms:       alarmRing{max: e.maxAlarms},
	}
	if e.cacheBudget != nil {
		m.featCache = core.NewFeatureCache(e.cacheBudget)
	}
	e.attachActive(m)
	sh := e.shardFor(name)
	sh.createMu.Lock()
	defer sh.createMu.Unlock()
	sh.mu.RLock()
	_, exists := sh.series[name]
	sh.mu.RUnlock()
	if exists {
		return &kindError{kind: ErrExists, cause: fmt.Errorf("series %q already exists", name)}
	}
	if e.store != nil {
		// The meta record is durable before the series is published, so it
		// precedes any points in the log and a creation that cannot reach
		// disk fails synchronously, leaving nothing registered.
		if err := e.createSeries(tsdb.Meta{
			Name:            name,
			Start:           cfg.Start.UTC(),
			IntervalSeconds: cfg.IntervalSeconds,
			Recall:          pref.Recall,
			Precision:       pref.Precision,
			Trees:           trees,
			WebhookURL:      cfg.WebhookURL,
			RetrainEvery:    cfg.RetrainEvery,
			Predictor:       uint8(predKind),
			EVTQ:            cfg.EVTQ,
		}); err != nil {
			return err
		}
	}
	if cfg.WebhookURL != "" {
		e.attachIncident(m, cfg.WebhookURL)
	}
	sh.mu.Lock()
	sh.series[name] = m
	sh.mu.Unlock()
	e.log.Info("series created", "name", name, "interval", interval)
	return nil
}

// attachActive builds the series' active-learning state from the engine
// template, defaulting the drift histogram window to one day of the series'
// points so the statistic compares like-for-like across sampling intervals.
func (e *Engine) attachActive(m *managed) {
	cfg := e.activeCfg
	if cfg.DriftWindow == 0 {
		if ppd, err := m.series.PointsPerDay(); err == nil {
			cfg.DriftWindow = ppd
		}
	}
	m.active = active.NewState(cfg)
}

// attachIncident wires a webhook URL to an incident manager whose notifier
// is an asynchronous retrying pipeline, so webhook trouble never blocks
// ingest.
func (e *Engine) attachIncident(m *managed, webhookURL string) {
	m.pipeline = alerting.NewPipeline(e.notifier(m.name, webhookURL), e.notifyCfg)
	m.incident = &alerting.Manager{Series: m.name, Notifier: m.pipeline}
}

// all returns every managed series sorted by name: the one walk over the
// shards. A shard's lock is held only to copy its pointers out, never while a
// series is locked.
func (e *Engine) all() []*managed {
	var ms []*managed
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for _, m := range sh.series {
			ms = append(ms, m)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// Names returns the managed series names, sorted.
func (e *Engine) Names() []string {
	ms := e.all()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.name
	}
	return names
}

// Status describes one monitored series. Field tags double as the service's
// wire format so the HTTP layer can return it verbatim.
type Status struct {
	Name            string    `json:"name"`
	Points          int       `json:"points"`
	AnomalousPoints int       `json:"anomalous_points"`
	LabeledWindows  int       `json:"labeled_windows"`
	Trained         bool      `json:"trained"`
	TrainedAt       time.Time `json:"trained_at,omitempty"`
	CThld           float64   `json:"cthld,omitempty"`
	Recall          float64   `json:"recall"`
	Precision       float64   `json:"precision"`
	IntervalSeconds int       `json:"interval_seconds"`
	// Degraded reports the series is serving threshold-only verdicts while
	// its durable writes catch up (see the degraded-mode state machine).
	Degraded bool `json:"degraded,omitempty"`
	// Quarantined reports automatic retraining is suspended after repeated
	// failures; the last good model keeps serving.
	Quarantined bool `json:"quarantined,omitempty"`
	// CThldPredictor names the series' cThld prediction strategy ("ewma"
	// or "evt").
	CThldPredictor string `json:"cthld_predictor,omitempty"`
	// TypedModel reports a trained multi-class anomaly-type head is live.
	TypedModel bool `json:"typed_model,omitempty"`
}

// Status reports one series' state.
func (e *Engine) Status(ctx context.Context, name string) (Status, error) {
	if err := ctx.Err(); err != nil {
		return Status{}, err
	}
	m, err := e.lookup(name)
	if err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Name:            m.name,
		Points:          m.series.Len(),
		AnomalousPoints: m.labels.Count(),
		LabeledWindows:  len(m.labels.Windows()),
		Trained:         m.monitor != nil,
		Recall:          m.pref.Recall,
		Precision:       m.pref.Precision,
		IntervalSeconds: int(m.series.Interval / time.Second),
		Degraded:        m.degraded,
		Quarantined:     m.quarantined.Load(),
		CThldPredictor:  m.predKind.String(),
	}
	if m.monitor != nil {
		st.CThld = m.monitor.CThld()
		st.TrainedAt = m.trained
		st.CThldPredictor = m.monitor.PredictorKind().String()
		st.TypedModel = m.monitor.HasTypeModel()
	}
	return st, nil
}

// Alarms returns the retained alarms raised after since, oldest first.
func (e *Engine) Alarms(name string, since time.Time) ([]Alarm, error) {
	m, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alarms.since(since), nil
}

// Window is one label action over the half-open index range [Start, End).
// Field tags double as the service's wire format.
type Window struct {
	Start     int  `json:"start"`
	End       int  `json:"end"`
	Anomalous bool `json:"anomalous"`
	// Type optionally names the anomaly class of an anomalous window
	// ("spike", "drop", "ramp", "level_shift", "jitter"); typed windows
	// train the multi-class anomaly-type head at the next retrain. Empty
	// leaves the window untyped.
	Type string `json:"type,omitempty"`
}

// LabelResult summarizes a series' labels after a Label call.
type LabelResult struct {
	AnomalousPoints int
	LabeledWindows  int
}

// Label applies label actions to a series. The whole batch is validated
// before anything is applied: an out-of-range window rejects the entire
// request with an ErrRejected-wrapped error and no labels changed.
func (e *Engine) Label(ctx context.Context, name string, windows []Window) (LabelResult, error) {
	if err := ctx.Err(); err != nil {
		return LabelResult{}, err
	}
	m, err := e.lookup(name)
	if err != nil {
		return LabelResult{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	classes := make([]core.AnomalyClass, len(windows))
	for wi, lw := range windows {
		if lw.Start < 0 || lw.End > m.series.Len() || lw.Start >= lw.End {
			return LabelResult{}, rejectedf("window [%d, %d) out of range 0..%d", lw.Start, lw.End, m.series.Len())
		}
		class, ok := core.ParseClass(lw.Type)
		if !ok {
			return LabelResult{}, rejectedf("unknown anomaly type %q", lw.Type)
		}
		classes[wi] = class
	}
	for wi, lw := range windows {
		class := classes[wi]
		typed := class != core.ClassNone
		if typed && m.typed == nil {
			m.typed = make([]uint8, len(m.labels))
		}
		for i := lw.Start; i < lw.End; i++ {
			m.labels[i] = lw.Anomalous
			if m.typed != nil {
				// Keep the channels consistent: an untyped or un-labeling
				// action clears the class over its range.
				code := uint8(0)
				if lw.Anomalous && typed {
					code = uint8(class)
				}
				m.typed[i] = code
			}
		}
		if e.store != nil {
			// walWrite owns failure accounting and logging; a write that
			// blows its deadline flips the series degraded inside.
			e.walWrite(ctx, m, tsdb.Record{Name: m.name, Start: lw.Start, End: lw.End, Anomalous: lw.Anomalous, Class: uint8(class)})
		}
	}
	return LabelResult{
		AnomalousPoints: m.labels.Count(),
		LabeledWindows:  len(m.labels.Windows()),
	}, nil
}

// Restore reloads every series in the store with a bounded pool of parallel
// workers and returns the number of series restored. Per series the fallback
// ladder is warm → cold → data-only: if a model registry is attached and
// holds a valid artifact (CRC and deployment fingerprint both verified), the
// published monitor is loaded and its detectors re-warmed from trailing
// history with no training at all; if the warm rung fails for any reason —
// no artifact, corrupt frame, snapshot version or fingerprint skew — only
// that series falls back to the pre-registry behavior of a synchronous cold
// retrain; a series that is not trainable either restores its data and waits
// for the operator.
//
// A series whose log is damaged is quarantined — tombstoned in the store
// (its frames stay on disk for inspection), logged, and counted — and restore
// continues with the remaining series: one corrupt log must not take down the
// daemon. An artifact that decodes to garbage is likewise quarantined
// (*.corrupt inside the registry) before the cold fallback.
func (e *Engine) Restore(ctx context.Context) (int, error) {
	if e.store == nil {
		return 0, nil
	}
	started := time.Now()
	names, err := e.store.List()
	if err != nil {
		return 0, err
	}
	workers := e.restoreWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > len(names) {
		workers = len(names)
	}
	var restored atomic.Int64
	work := make(chan string)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for name := range work {
				if e.restoreOne(ctx, name) {
					restored.Add(1)
				}
			}
		}()
	}
	var aborted error
	for _, name := range names {
		// Deadline checks sit between series, the natural cancellation
		// points: a series mid-restore finishes, the rest are skipped.
		if err := ctx.Err(); err != nil {
			aborted = err
			break
		}
		work <- name
	}
	close(work)
	wg.Wait()
	e.met.RestoreMillis.Store(time.Since(started).Milliseconds())
	return int(restored.Load()), aborted
}

// restoreOne rebuilds one series from its log, walks the warm→cold→data-only
// ladder, and registers the series in its shard. It reports whether the
// series was restored (false only when the log itself is unreadable).
func (e *Engine) restoreOne(ctx context.Context, name string) bool {
	loaded, err := e.store.Load(name)
	if err != nil {
		quarantined, qErr := e.store.Quarantine(name)
		if qErr != nil {
			e.log.Error("series unrestorable and quarantine failed",
				"series", name, "load_err", err, "quarantine_err", qErr)
			return false
		}
		e.met.WALQuarantined.Add(1)
		e.log.Warn("corrupt series log quarantined",
			"series", name, "err", err, "quarantined_to", quarantined)
		return false
	}
	meta := loaded.Meta
	m := &managed{
		name:         meta.Name,
		series:       timeseries.New(meta.Name, meta.Start.UTC(), time.Duration(meta.IntervalSeconds)*time.Second),
		pref:         stats.Preference{Recall: meta.Recall, Precision: meta.Precision},
		trees:        meta.Trees,
		predKind:     core.PredictorKind(meta.Predictor),
		evtQ:         meta.EVTQ,
		retrainEvery: meta.RetrainEvery,
		alarms:       alarmRing{max: e.maxAlarms},
	}
	if e.cacheBudget != nil {
		m.featCache = core.NewFeatureCache(e.cacheBudget)
	}
	e.attachActive(m)
	m.series.Values = loaded.Values
	m.labels = timeseries.Labels(loaded.Labels)
	m.typed = loaded.Types
	if meta.WebhookURL != "" {
		e.attachIncident(m, meta.WebhookURL)
	}

	warm := false
	if e.models != nil {
		if err := e.warmRestore(m); err == nil {
			warm = true
			e.met.ModelRestoreWarm.Add(1)
			e.log.Info("series restored warm", "series", meta.Name,
				"trained_at", m.trained, "points", m.series.Len())
		} else if !errors.Is(err, modelreg.ErrUnknownSeries) && !errors.Is(err, modelreg.ErrNoArtifact) {
			e.log.Warn("warm restore failed, falling back to cold retrain",
				"series", meta.Name, "err", err)
		}
	}
	if !warm {
		if _, err := e.train(ctx, m); err != nil {
			// Not trainable yet (no labels or too little data): restore the
			// data anyway and let the operator train later.
			e.log.Info("restored without classifier", "series", meta.Name, "reason", err)
		} else {
			e.met.ModelRestoreCold.Add(1)
		}
	}

	sh := e.shardFor(meta.Name)
	sh.mu.Lock()
	sh.series[meta.Name] = m
	sh.mu.Unlock()
	return true
}

// Close stops the retrain and publish workers (waiting out a round already
// in flight), publishes any trained model newer than its last artifact so a
// retrain finished moments before shutdown is not lost, shuts down the
// per-series notification pipelines, giving pending webhook deliveries a
// short drain window, and waits for durable writes still in flight. Call it
// after the serving transport has stopped so no new work can arrive.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
	e.PublishModels()
	all := e.all()
	ctx, cancel := drainContext()
	defer cancel()
	for _, m := range all {
		if m.pipeline != nil {
			_ = m.pipeline.Drain(ctx)
			m.pipeline.Close()
		}
	}
	// Wait out the durable writes last so everything submitted during a
	// degraded window reaches disk before the caller closes the store;
	// writes wedged on a stuck store are abandoned after the timeout (logged,
	// not waited out).
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, m := range all {
		if err := m.awaitWALIdle(ctx); err != nil {
			e.log.Error("durable writes still in flight at close", "series", m.name, "writes", m.walWrites.Load())
		}
	}
}
