package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/ml/forest"
)

// TrainResult reports one completed training round.
type TrainResult struct {
	TrainedAt time.Time
	CThld     float64
	Points    int
}

// Train (re)trains the named series' classifier and blocks until the new
// monitor is live. The caller waits, but ingest does not: training runs
// against a snapshot and only briefly re-acquires the series mutex to replay
// mid-train points and swap the monitor in (see train). Untrainable history
// returns an ErrRejected-wrapped error; a round that blows the training
// deadline (or ctx's, whichever is sooner) is abandoned by the watchdog
// with an ErrStalled-wrapped error and the live monitor untouched. A
// successful manual Train also lifts a training quarantine.
func (e *Engine) Train(ctx context.Context, name string) (TrainResult, error) {
	m, err := e.lookup(name)
	if err != nil {
		return TrainResult{}, err
	}
	return e.train(ctx, m)
}

// train runs one snapshot → fit → replay+swap round. The retrain-swap
// protocol:
//
//  1. Under m.mu: clone the series and labels (cheap memcpy) and note the
//     live monitor. Release m.mu — ingest continues against the live
//     monitor throughout the expensive part.
//  2. Off-lock: fit a replacement monitor under the watchdog (supervise).
//     First-ever training builds it with core.NewMonitor (cross-validated
//     initial cThld); afterwards Monitor.Retrain carries the cThld
//     predictor's state forward without touching the live monitor. A fit
//     error or panic rejects the round; a fit the watchdog abandons is
//     detached from the series' feature cache (see below).
//  3. Under m.mu again: install the new monitor, replaying the points
//     appended since the snapshot (see managed.install). Every point thus
//     receives exactly one verdict across the swap.
//
// m.trainMu serializes rounds so two trains cannot interleave their swaps.
// On any error the live monitor is left untouched.
func (e *Engine) train(ctx context.Context, m *managed) (res TrainResult, err error) {
	m.trainMu.Lock()
	defer m.trainMu.Unlock()

	started := time.Now()
	if e.hooks.TrainDone != nil {
		defer func() { e.hooks.TrainDone(m.name, res, err) }()
	}
	// Deferred last so it runs first: the round is counted before the hook
	// announces it.
	defer func() {
		e.met.TrainingsRun.Add(1)
		e.met.TrainingMillis.Add(time.Since(started).Milliseconds())
	}()
	if err = ctx.Err(); err != nil {
		return TrainResult{}, err
	}

	// 1. Snapshot.
	m.mu.Lock()
	snap := m.series.Clone()
	labels := m.labels.Clone()
	var typed []uint8
	if m.typed != nil {
		typed = append([]uint8(nil), m.typed...)
	}
	cur := m.monitor
	m.mu.Unlock()

	// 2. Fit off-lock, supervised.
	dets, err := e.registry(snap.Interval)
	if err != nil {
		return TrainResult{}, rejected(err)
	}
	// The fit and the watchdog meet at a two-party rendezvous over the
	// series' feature cache: whichever of "fit returned" and "watchdog gave
	// up" comes second invalidates it. A fit that returns in time counts
	// once and leaves the cache alone; an abandoned one keeps extending the
	// old cache, which is handed back to the budget — and can never feed a
	// later round — only once the zombie is done with it.
	cache := m.featCache // stable: we hold m.trainMu
	var handoff atomic.Int32
	meet := func() {
		if handoff.Add(1) == 2 {
			cache.Invalidate()
		}
	}
	var next *core.Monitor
	err = e.supervise(ctx, "training round", m.name, func() error {
		defer meet()
		var err error
		if cur == nil {
			next, err = core.NewMonitor(snap, labels, dets, core.MonitorConfig{
				Preference:      m.pref,
				Forest:          forest.Config{Trees: m.trees, Seed: 1},
				Predictor:       m.predKind,
				EVTQ:            m.evtQ,
				TypeLabels:      typed,
				OnDetectorPanic: e.panicHook(m.name),
				Cache:           cache,
			})
		} else {
			next, err = cur.Retrain(snap, labels, typed, dets, cache)
		}
		return err
	})
	if errors.Is(err, ErrStalled) {
		m.featCache = core.NewFeatureCache(e.cacheBudget) // the next round extracts cold
		meet()
		return TrainResult{}, err
	}
	if err != nil {
		return TrainResult{}, rejected(err)
	}

	st := next.TrainStages()
	e.met.TrainExtractMicros.Add(st.Extract.Microseconds())
	e.met.TrainPresortMicros.Add(st.Presort.Microseconds())
	e.met.TrainFitMicros.Add(st.Fit.Microseconds())
	e.met.TrainThresholdMicros.Add(st.Threshold.Microseconds())

	// 3. Install.
	m.mu.Lock()
	m.install(next, snap.Len())
	m.trained = time.Now().UTC()
	m.pointsAtTrain = m.series.Len()
	res = TrainResult{TrainedAt: m.trained, CThld: next.CThld(), Points: m.series.Len()}
	m.mu.Unlock()

	// A successful round resets the failure streak and lifts quarantine.
	m.trainFails.Store(0)
	if m.quarantined.CompareAndSwap(true, false) {
		e.log.Info("series left training quarantine", "series", m.name)
	}

	e.log.Info("series trained", "name", m.name, "points", res.Points,
		"cthld", res.CThld, "replayed", res.Points-snap.Len(), "took", time.Since(started))
	// Checkpoint the new model off the training path (no-op without a model
	// registry); Close runs a final synchronous sweep for anything unflushed.
	e.schedulePublish(m)
	return res, nil
}

// install puts mon in service — the one place a series' monitor changes
// hands, for a training round, a rollback and a warm restore alike. The
// caller holds m.mu (or owns a series no shard has published yet) and sets
// its own trained-at, published-at and retrain-watermark fields afterwards.
// The values appended since the history mon was built or loaded against,
// m.series.Values[from:], are replayed through it: their client-facing
// verdicts were already issued by the outgoing monitor, so the replay's are
// discarded — it only advances detector and duration-filter state to the
// stream head. The replay covers values parked in the degraded-mode pending
// buffer too (they are ordinary series values by now), so pending is
// cleared; pending label queries and the drift reference belong to the
// outgoing generation, so the active-learning state is reset.
func (m *managed) install(mon *core.Monitor, from int) {
	m.vbatch = mon.StepBatch(m.series.Values[from:], m.vbatch[:0])
	m.monitor = mon
	m.pending = m.pending[:0]
	m.active.Reset()
}

// VerifyFeatureCache cross-checks the named series' incremental
// feature-extraction cache against a from-scratch cold extraction (see
// core.FeatureCache.VerifyAgainstCold): the caches must be bit-identical or
// the incremental retrain path is producing different training data than a
// cold one would. It returns nil when the cache is empty. It holds the series' trainMu for the (expensive) cold extraction, so
// it competes with training rounds but never with ingest.
func (e *Engine) VerifyFeatureCache(name string) error {
	m, err := e.lookup(name)
	if err != nil {
		return err
	}
	m.trainMu.Lock()
	defer m.trainMu.Unlock()
	m.mu.Lock()
	snap := m.series.Clone()
	m.mu.Unlock()
	dets, err := e.registry(snap.Interval)
	if err != nil {
		return err
	}
	return m.featCache.VerifyAgainstCold(snap, dets, core.ExtractConfig{})
}

// panicHook builds the per-series detector-panic callback: count and log,
// never crash (see core's sandboxing).
func (e *Engine) panicHook(name string) func(string, any) {
	return func(detName string, recovered any) {
		e.met.DetectorPanics.Add(1)
		e.log.Warn("detector panic sandboxed", "series", name,
			"detector", detName, "panic", recovered)
	}
}

// scheduleRetrain arms one asynchronous retrain for m and reports whether a
// round was actually queued. Callers hold m.mu; only the CAS and a
// non-blocking channel send happen here. If the queue is saturated the
// trigger is dropped and re-armed by the next append. A quarantined series
// is skipped: its old model keeps serving until a manual Train succeeds.
func (e *Engine) scheduleRetrain(m *managed) bool {
	if m.quarantined.Load() {
		return false
	}
	if !m.training.CompareAndSwap(false, true) {
		return false // already queued or running
	}
	select {
	case e.trainQ <- m:
		return true
	default:
		m.training.Store(false)
		e.log.Warn("retrain queue full, trigger dropped", "series", m.name)
		return false
	}
}

// retrainWorker consumes scheduled retrains until Close.
func (e *Engine) retrainWorker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.stop:
			return
		case m := <-e.trainQ:
			e.autoRetrain(m)
			m.training.Store(false)
		}
	}
}

// trainRetries is how many times an automatic round that stalled is retried
// before autoRetrain gives up on that trigger.
const trainRetries = 3

// autoRetrain runs one automatic round under the watchdog's retry policy:
// a stalled round is retried with exponential backoff and jitter (bounded
// by trainRetries and engine shutdown); any failure advances the
// series' consecutive-failure streak, and crossing the limit quarantines
// its training — the last good model keeps serving, automatic retrains
// stop, and a successful manual Train lifts it.
func (e *Engine) autoRetrain(m *managed) {
	backoff := 100 * time.Millisecond
	const maxBackoff = 10 * time.Second
	for attempt := 0; ; attempt++ {
		_, err := e.train(context.Background(), m)
		if err == nil {
			return
		}
		fails := int(m.trainFails.Add(1))
		e.log.Warn("auto-retrain failed", "series", m.name,
			"attempt", attempt, "consecutive_failures", fails, "err", err)
		if fails >= e.trainFailLimit {
			if m.quarantined.CompareAndSwap(false, true) {
				e.met.SeriesQuarantined.Add(1)
				e.log.Error("series training quarantined after repeated failures",
					"series", m.name, "failures", fails)
			}
			return
		}
		// Only stalls are worth retrying: a rejected round (untrainable
		// history, bad registry) fails identically on every attempt.
		if !errors.Is(err, ErrStalled) || attempt >= trainRetries {
			return
		}
		e.met.TrainRetries.Add(1)
		delay := backoff + time.Duration(rand.Int63n(int64(backoff/2)+1))
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
		select {
		case <-e.stop:
			return
		case <-time.After(delay):
		}
	}
}
