package engine

import (
	"sync/atomic"
	"time"

	"opprentice/internal/alerting"
)

// counters are the engine's operational counters. They are updated once per
// batch/event (never per point) and exported via Counters for whatever
// exposition format the transport layer speaks.
type counters struct {
	pointsIngested  atomic.Int64
	alarmsRaised    atomic.Int64
	trainingsRun    atomic.Int64
	trainingMillis  atomic.Int64
	detectorPanics  atomic.Int64 // sandboxed detector panics (training + online)
	walQuarantined  atomic.Int64 // corrupt series logs set aside during Restore
	walAppendErrors atomic.Int64 // failed durable appends (points + labels)

	modelPublishes     atomic.Int64 // artifacts published to the model registry
	modelPublishErrors atomic.Int64 // failed publish attempts
	modelRestoreWarm   atomic.Int64 // series restored from a published artifact
	modelRestoreCold   atomic.Int64 // series cold-retrained during Restore
	modelRollbacks     atomic.Int64 // explicit model rollbacks
	restoreMillis      atomic.Int64 // wall time of the last Restore pass

	// Overload and supervision accounting.
	ingestSheds       atomic.Int64 // batches shed by admission control
	degradedEntered   atomic.Int64 // series transitions into degraded mode
	degradedRecovered atomic.Int64 // series transitions back to healthy
	walBufferedPoints atomic.Int64 // points submitted unawaited while degraded
	walLostPoints     atomic.Int64 // points dropped from the log (buffer full)
	trainStalls       atomic.Int64 // training/publish rounds abandoned by the watchdog
	trainRetriesRun   atomic.Int64 // watchdog-driven retrain retries
	seriesQuarantined atomic.Int64 // series whose training was quarantined
	workerPanics      atomic.Int64 // recovered panics in supervised workers

	// Active-learning accounting (see internal/active).
	queriesAnswered atomic.Int64 // label queries answered via AnswerQuery
	driftRetrains   atomic.Int64 // retrains armed by the drift detector
}

// observeTraining records one training round's wall time (failed rounds
// count too, as before the engine split).
func (c *counters) observeTraining(d time.Duration) {
	c.trainingsRun.Add(1)
	c.trainingMillis.Add(d.Milliseconds())
}

// Counters is a point-in-time snapshot of the engine-wide counters.
type Counters struct {
	PointsIngested  int64
	AlarmsRaised    int64
	TrainingsRun    int64
	TrainingSeconds float64
	DetectorPanics  int64
	WALQuarantined  int64
	WALAppendErrors int64

	// Model-registry accounting (all zero without a registry).
	// ModelRestoreWarm/Cold split the last Restore pass by mode;
	// RestoreSeconds is that pass's wall time.
	ModelPublishes        int64
	ModelPublishErrors    int64
	ModelRestoreWarm      int64
	ModelRestoreCold      int64
	ModelRollbacks        int64
	ModelChecksumFailures int64
	RestoreSeconds        float64

	// Incremental feature-extraction cache accounting (all zero when the
	// cache is disabled). ExtractPointsCold/Incremental count
	// (point × configuration) severity computations by extraction mode —
	// the ratio is the retrain amortization actually achieved.
	ExtractPointsCold        int64
	ExtractPointsIncremental int64
	ExtractCacheBytes        int64
	ExtractCacheCapBytes     int64
	ExtractCacheInvalidated  int64

	// Overload and supervision accounting (see the resilience layer).
	IngestSheds       int64
	DegradedEntered   int64
	DegradedRecovered int64
	WALBufferedPoints int64
	WALLostPoints     int64
	TrainStalls       int64
	TrainRetries      int64
	SeriesQuarantined int64
	WorkerPanics      int64

	// Active-learning accounting: answered label queries and retrains the
	// drift detector armed ahead of the weekly tick.
	QueriesAnswered int64
	DriftRetrains   int64
}

// Counters returns the current engine-wide counters.
func (e *Engine) Counters() Counters {
	c := Counters{
		PointsIngested:  e.counters.pointsIngested.Load(),
		AlarmsRaised:    e.counters.alarmsRaised.Load(),
		TrainingsRun:    e.counters.trainingsRun.Load(),
		TrainingSeconds: float64(e.counters.trainingMillis.Load()) / 1000,
		DetectorPanics:  e.counters.detectorPanics.Load(),
		WALQuarantined:  e.counters.walQuarantined.Load(),
		WALAppendErrors: e.counters.walAppendErrors.Load(),

		ModelPublishes:     e.counters.modelPublishes.Load(),
		ModelPublishErrors: e.counters.modelPublishErrors.Load(),
		ModelRestoreWarm:   e.counters.modelRestoreWarm.Load(),
		ModelRestoreCold:   e.counters.modelRestoreCold.Load(),
		ModelRollbacks:     e.counters.modelRollbacks.Load(),
		RestoreSeconds:     float64(e.counters.restoreMillis.Load()) / 1000,

		IngestSheds:       e.counters.ingestSheds.Load(),
		DegradedEntered:   e.counters.degradedEntered.Load(),
		DegradedRecovered: e.counters.degradedRecovered.Load(),
		WALBufferedPoints: e.counters.walBufferedPoints.Load(),
		WALLostPoints:     e.counters.walLostPoints.Load(),
		TrainStalls:       e.counters.trainStalls.Load(),
		TrainRetries:      e.counters.trainRetriesRun.Load(),
		SeriesQuarantined: e.counters.seriesQuarantined.Load(),
		WorkerPanics:      e.counters.workerPanics.Load(),

		QueriesAnswered: e.counters.queriesAnswered.Load(),
		DriftRetrains:   e.counters.driftRetrains.Load(),
	}
	if e.models != nil {
		c.ModelChecksumFailures = e.models.Stats().ChecksumFailures
	}
	if e.cacheBudget != nil {
		cs := e.cacheBudget.Stats()
		c.ExtractPointsCold = cs.ColdPoints
		c.ExtractPointsIncremental = cs.IncrementalPoints
		c.ExtractCacheBytes = cs.Bytes
		c.ExtractCacheCapBytes = cs.CapBytes
		c.ExtractCacheInvalidated = cs.Invalidations
	}
	return c
}

// SeriesMetrics is one series' gauge snapshot for metric exposition.
type SeriesMetrics struct {
	Name              string
	Points            int
	LabeledWindows    int
	Trained           bool
	CThld             float64
	DegradedDetectors int
	// PendingQueries is the label-query queue depth; DriftScore the PSI of
	// the last completed drift comparison window (both zero when the
	// active-learning subsystem is disabled).
	PendingQueries int
	DriftScore     float64
	Notify         alerting.Stats
}

// MetricsSnapshot returns per-series gauges sorted by name. Each series is
// locked only briefly.
func (e *Engine) MetricsSnapshot() []SeriesMetrics {
	names := e.Names()
	out := make([]SeriesMetrics, 0, len(names))
	for _, name := range names {
		m, err := e.lookup(name)
		if err != nil {
			continue // deleted between Names and here
		}
		m.mu.Lock()
		sm := SeriesMetrics{
			Name:           name,
			Points:         m.series.Len(),
			LabeledWindows: len(m.labels.Windows()),
			Trained:        m.monitor != nil,
		}
		if sm.Trained {
			sm.CThld = m.monitor.CThld()
			sm.DegradedDetectors = m.monitor.DegradedDetectors()
		}
		if m.active != nil {
			sm.PendingQueries = m.active.Depth()
			sm.DriftScore = m.active.DriftScore()
		}
		if m.pipeline != nil {
			sm.Notify = m.pipeline.Stats()
		}
		m.mu.Unlock()
		out = append(out, sm)
	}
	return out
}

// Inspection is the dashboard's view of one series: copies of the trailing
// values and most recent alarms plus the headline gauges.
type Inspection struct {
	Points         int
	LabeledWindows int
	Trained        bool
	CThld          float64
	Recent         []float64
	LastAlarms     []Alarm
}

// Inspect returns a dashboard snapshot of one series with up to lastValues
// trailing points and lastAlarms recent alarms. The returned slices are
// copies.
func (e *Engine) Inspect(name string, lastValues, lastAlarms int) (Inspection, bool) {
	m, err := e.lookup(name)
	if err != nil {
		return Inspection{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ins := Inspection{
		Points:         m.series.Len(),
		LabeledWindows: len(m.labels.Windows()),
		Trained:        m.monitor != nil,
	}
	if ins.Trained {
		ins.CThld = m.monitor.CThld()
	}
	lo := m.series.Len() - lastValues
	if lo < 0 {
		lo = 0
	}
	ins.Recent = append([]float64(nil), m.series.Values[lo:]...)
	ins.LastAlarms = m.alarms.last(lastAlarms)
	return ins, true
}
