package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/ml/forest"
	"opprentice/internal/timeseries"
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
//  2. Off-lock: fit a replacement monitor, supervised by the training
//     watchdog (see fitSupervised). First-ever training builds it with
//     core.NewMonitor (cross-validated initial cThld); afterwards
//     Monitor.Retrain carries the cThld predictor's state forward without
//     touching the live monitor.
//  3. Under m.mu again: replay the points appended since the snapshot
//     through the new monitor — their client-facing verdicts were already
//     issued by the old monitor, so replay verdicts are discarded; the
//     replay only advances detector and duration-filter state to the stream
//     head — then swap the monitor pointer. Every point thus receives
//     exactly one verdict across the swap. The replay covers any values
//     parked in the degraded-mode pending buffer too (they are ordinary
//     series values by now), so pending is cleared at the swap.
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
	next, err := e.fitSupervised(ctx, m, snap, labels, typed, cur, dets)
	if err != nil {
		return TrainResult{}, err
	}

	// 3. Replay and swap.
	m.mu.Lock()
	m.vbatch = next.StepBatch(m.series.Values[snap.Len():], m.vbatch[:0])
	m.monitor = next
	m.trained = time.Now().UTC()
	m.pointsAtTrain = m.series.Len()
	m.pending = m.pending[:0]
	if m.active != nil {
		// New model generation: pending queries were scored by the outgoing
		// monitor and the drift detector needs a fresh reference.
		m.active.Reset()
	}
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

// fitSupervised runs the expensive fit under the training watchdog: the
// fit executes on its own goroutine (panics recovered and counted, never
// crashing the engine) while this one waits out the effective deadline —
// the smaller of the engine's training deadline and ctx's. On a miss the
// round is abandoned with an ErrStalled-wrapped error and the zombie fit
// is detached: the series gets a fresh feature cache immediately (the next
// round extracts cold), and the old cache is invalidated once the zombie
// finishes so its budget is returned and its result can never be swapped
// in. Caller holds m.trainMu, so m.featCache is stable here.
func (e *Engine) fitSupervised(ctx context.Context, m *managed, snap *timeseries.Series,
	labels timeseries.Labels, typed []uint8, cur *core.Monitor, dets []detectors.Detector) (*core.Monitor, error) {

	deadline := time.Duration(e.trainDeadline.Load())
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); deadline <= 0 || rem < deadline {
			deadline = rem
		}
	}
	cache := m.featCache
	fit := func() (*core.Monitor, error) {
		if cur == nil {
			cfg := core.MonitorConfig{
				Preference:      m.pref,
				Forest:          forest.Config{Trees: m.trees, Seed: 1},
				Predictor:       m.predKind,
				EVTQ:            m.evtQ,
				TypeLabels:      typed,
				OnDetectorPanic: e.panicHook(m.name),
				Cache:           cache,
			}
			return core.NewMonitor(snap, labels, dets, cfg)
		}
		return cur.Retrain(snap, labels, typed, dets, cache)
	}
	if deadline <= 0 && ctx.Done() == nil {
		// Watchdog disabled and nothing to cancel on: fit inline.
		next, err := fit()
		if err != nil {
			return nil, rejected(err)
		}
		return next, nil
	}

	type fitResult struct {
		mon *core.Monitor
		err error
	}
	done := make(chan fitResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				e.met.WorkerPanics.Add(1)
				done <- fitResult{err: fmt.Errorf("training panicked: %v", r)}
			}
		}()
		mon, err := fit()
		done <- fitResult{mon, err}
	}()
	var timer <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timer = t.C
	}
	select {
	case r := <-done:
		if r.err != nil {
			return nil, rejected(r.err)
		}
		return r.mon, nil
	case <-timer:
	case <-ctx.Done():
	}
	e.met.TrainStalls.Add(1)
	if cache != nil {
		m.featCache = core.NewFeatureCache(e.cacheBudget)
		go func() {
			<-done
			cache.Invalidate()
		}()
	} else {
		go func() { <-done }()
	}
	return nil, stalledf("training round for %q exceeded its %v deadline", m.name, deadline)
}

// VerifyFeatureCache cross-checks the named series' incremental
// feature-extraction cache against a from-scratch cold extraction (see
// core.FeatureCache.VerifyAgainstCold): the caches must be bit-identical or
// the incremental retrain path is producing different training data than a
// cold one would. It returns nil when caching is disabled or the cache is
// empty. It holds the series' trainMu for the (expensive) cold extraction, so
// it competes with training rounds but never with ingest.
func (e *Engine) VerifyFeatureCache(name string) error {
	m, err := e.lookup(name)
	if err != nil {
		return err
	}
	if m.featCache == nil {
		return nil
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

// autoRetrain runs one automatic round under the watchdog's retry policy:
// a stalled round is retried with exponential backoff and jitter (bounded
// by the retry budget and engine shutdown); any failure advances the
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
		if e.trainFailLimit > 0 && fails >= e.trainFailLimit {
			if m.quarantined.CompareAndSwap(false, true) {
				e.met.SeriesQuarantined.Add(1)
				e.log.Error("series training quarantined after repeated failures",
					"series", m.name, "failures", fails)
			}
			return
		}
		// Only stalls are worth retrying: a rejected round (untrainable
		// history, bad registry) fails identically on every attempt.
		if !errors.Is(err, ErrStalled) || attempt >= e.trainRetries {
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
