package engine

import (
	"bytes"
	"context"
	"errors"

	"opprentice/internal/core"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/timeseries"
)

// This file wires the model registry (internal/registry) into the engine:
// asynchronous artifact publication after every successful training round,
// warm restart from published artifacts, explicit rollback with a live
// monitor hot-swap, and the read-side accessors the service exposes.
//
// The fallback ladder on restore is warm → cold → data-only:
//
//	warm  load the newest valid artifact, verify its CRC (registry) and
//	      deployment fingerprint (core.LoadMonitor), re-warm detectors from
//	      trailing history — no training.
//	cold  anything on the warm rung failed (no artifact, corrupt, version or
//	      fingerprint skew): synchronously retrain from the WAL like before
//	      the registry existed. Only this series pays; its neighbors still
//	      restore warm.
//	data  the series is not trainable either (no labels yet): restore the
//	      data and let the operator train later.

// warmWeeks is how much trailing history detectors replay when a monitor is
// restored from an artifact. The longest warm-up in the default detector
// registry is 5 weeks (weekly diffs over a 4-week window), so 6 gives one
// full week of settled state beyond it.
const warmWeeks = 6

// SetModels attaches a model registry: every successful training round is
// then published asynchronously, and Restore prefers warm starts from
// published artifacts. Call it before Restore and before traffic.
func (e *Engine) SetModels(r *modelreg.Registry) { e.models = r }

// schedulePublish arms one asynchronous artifact publication for m. Like
// scheduleRetrain it is a CAS plus a non-blocking send; a drop is harmless
// because the next training round re-arms it and Close runs a final sweep.
func (e *Engine) schedulePublish(m *managed) {
	if e.models == nil {
		return
	}
	if !m.publishArmed.CompareAndSwap(false, true) {
		return // already queued
	}
	select {
	case e.pubQ <- m:
	default:
		m.publishArmed.Store(false)
		e.log.Warn("publish queue full, trigger dropped", "series", m.name)
	}
}

// publishWorker consumes scheduled publications until Close.
func (e *Engine) publishWorker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.stop:
			return
		case m := <-e.pubQ:
			m.publishArmed.Store(false)
			if _, err := e.publishNow(m); err != nil {
				e.log.Warn("model publish failed", "series", m.name, "err", err)
			}
		}
	}
}

// publishNow publishes m's trained model if it is newer than the last
// published artifact, reporting whether an artifact was written. It is safe
// against concurrent ingest: the engine never mutates a live monitor's model
// state in place (retraining swaps in a freshly built monitor), so
// SaveModel on the grabbed pointer reads only immutable fields.
func (e *Engine) publishNow(m *managed) (bool, error) {
	if e.models == nil {
		return false, nil
	}
	m.pubMu.Lock()
	defer m.pubMu.Unlock()

	m.mu.Lock()
	mon := m.monitor
	trained := m.trained
	points := m.pointsAtTrain
	published := m.publishedAt
	m.mu.Unlock()
	if mon == nil || !trained.After(published) {
		return false, nil // nothing new to publish
	}

	// The serialize-and-publish round runs under the same watchdog as
	// training: a registry wedged on bad storage cannot pin the publish
	// worker forever, and a panic in serialization is recovered and counted.
	var g modelreg.Generation
	err := e.supervise("model publish", m.name, func() error {
		var buf bytes.Buffer
		if err := mon.SaveModel(&buf); err != nil {
			return err
		}
		payloads := map[string][]byte{modelreg.KindVerdict: buf.Bytes()}
		if mon.HasTypeModel() {
			var tbuf bytes.Buffer
			if err := mon.SaveTypeModel(&tbuf); err != nil {
				return err
			}
			payloads[modelreg.KindType] = tbuf.Bytes()
		}
		var err error
		g, err = e.models.PublishSet(m.name, modelreg.Info{
			Fingerprint: mon.Fingerprint(),
			Points:      points,
			CThld:       mon.CThld(),
			TrainedAt:   trained,
		}, payloads)
		return err
	})
	if err != nil {
		e.met.ModelPublishErrors.Add(1)
		e.publishDone(m.name, 0, err)
		return false, err
	}
	e.met.ModelPublishes.Add(1)

	m.mu.Lock()
	if trained.After(m.publishedAt) {
		m.publishedAt = trained
	}
	m.mu.Unlock()
	e.log.Info("model published", "series", m.name, "gen", g.Gen,
		"points", g.Points, "bytes", g.Size)
	e.publishDone(m.name, g.Gen, nil)
	return true, nil
}

// publishDone fires the PublishDone hook, if configured.
func (e *Engine) publishDone(series string, gen uint64, err error) {
	if e.hooks.PublishDone != nil {
		e.hooks.PublishDone(series, gen, err)
	}
}

// PublishModels synchronously publishes every series whose trained model is
// newer than its last published artifact, returning how many artifacts were
// written. Close calls it after the workers stop so a model trained moments
// before shutdown is not lost; tests use it to flush without timing games.
func (e *Engine) PublishModels() int {
	if e.models == nil {
		return 0
	}
	n := 0
	for _, m := range e.all() {
		published, err := e.publishNow(m)
		if err != nil {
			e.log.Warn("model publish failed", "series", m.name, "err", err)
			continue
		}
		if published {
			n++
		}
	}
	return n
}

// warmWindow returns the trailing warmWeeks of s (or all of it when shorter):
// the history replayed through fresh detectors when loading an artifact.
func warmWindow(s *timeseries.Series) *timeseries.Series {
	ppw, err := s.PointsPerWeek()
	if err != nil {
		return s
	}
	if n := warmWeeks * ppw; s.Len() > n {
		return s.Slice(s.Len()-n, s.Len())
	}
	return s
}

// loadMonitorFromArtifact loads series' newest valid artifact set into a
// monitor, re-warming detectors from the trailing window of snap. An artifact
// that can never load (snapshot format skew, gob garbage behind a valid CRC)
// is quarantined; a fingerprint mismatch (trained under a different detector
// registry, tree count, or preference) is left in place — the operator may
// revert the deployment change — but still fails the warm rung. The verdict
// head decides the rung: a type-head payload that fails its own restore is
// quarantined by kind and the monitor serves without it (verdicts keep
// flowing, predicted types stop until the next publish).
func (e *Engine) loadMonitorFromArtifact(m *managed, snap *timeseries.Series) (*core.Monitor, *modelreg.LoadedSet, error) {
	set, err := e.models.LoadSet(m.name)
	if err != nil {
		return nil, nil, err
	}
	dets, err := e.registry(snap.Interval)
	if err != nil {
		return nil, nil, err
	}
	mon, err := core.LoadMonitor(bytes.NewReader(set.Payloads[modelreg.KindVerdict]), warmWindow(snap), dets, core.LoadConfig{
		Trees:           m.trees,
		Preference:      m.pref,
		OnDetectorPanic: e.panicHook(m.name),
	})
	if err != nil {
		if errors.Is(err, core.ErrSnapshotVersion) {
			if qErr := e.models.Quarantine(m.name, set.Gen); qErr != nil {
				e.log.Error("artifact unloadable and quarantine failed",
					"series", m.name, "gen", set.Gen, "err", qErr)
			}
		}
		return nil, nil, err
	}
	if tp, ok := set.Payloads[modelreg.KindType]; ok {
		if terr := mon.RestoreTypeModel(bytes.NewReader(tp)); terr != nil {
			e.log.Warn("type head unloadable; serving verdict head only",
				"series", m.name, "gen", set.Gen, "err", terr)
			if qErr := e.models.QuarantineKind(m.name, set.Gen, modelreg.KindType); qErr != nil {
				e.log.Error("type-head quarantine failed", "series", m.name, "gen", set.Gen, "err", qErr)
			}
		}
	}
	for _, kind := range set.Unavailable {
		e.log.Warn("secondary model artifact unavailable", "series", m.name,
			"gen", set.Gen, "kind", kind)
	}
	return mon, set, nil
}

// warmRestore is the warm rung of the restore ladder for a series not yet
// registered in any shard (Restore builds m privately, so no locks are
// needed). On success m serves the published model with its detectors warmed
// to the stream head.
func (e *Engine) warmRestore(m *managed) error {
	mon, art, err := e.loadMonitorFromArtifact(m, m.series)
	if err != nil {
		return err
	}
	m.monitor = mon
	m.trained = art.TrainedAt
	m.pointsAtTrain = art.Points
	m.publishedAt = art.TrainedAt
	return nil
}

// warmSwap hot-swaps a live series' monitor to the registry's current
// generation, following the retrain-swap protocol (snapshot under mu, load
// off-lock, replay mid-load points and swap under mu). RollbackModel uses it
// so a rollback takes effect without a restart.
func (e *Engine) warmSwap(m *managed) error {
	m.trainMu.Lock()
	defer m.trainMu.Unlock()

	m.mu.Lock()
	snap := m.series.Clone()
	m.mu.Unlock()

	mon, art, err := e.loadMonitorFromArtifact(m, snap)
	if err != nil {
		return err
	}

	m.mu.Lock()
	m.vbatch = mon.StepBatch(m.series.Values[snap.Len():], m.vbatch[:0])
	m.monitor = mon
	m.trained = art.TrainedAt
	// Like the retrain swap, the replay covered everything appended so far,
	// including values parked while degraded.
	m.pending = m.pending[:0]
	// The swapped-in model is deliberately old: pin pointsAtTrain to the
	// stream head so the auto-retrain trigger counts from now instead of
	// immediately republishing over the rollback, and mark it published so
	// Close's sweep does not re-publish generation N-1 as generation N+1.
	m.pointsAtTrain = m.series.Len()
	m.publishedAt = art.TrainedAt
	if m.active != nil {
		// The monitor changed hands: queries and drift reference belong to
		// the outgoing generation.
		m.active.Reset()
	}
	m.mu.Unlock()
	return nil
}

// ModelSeries lists the series with published artifacts.
func (e *Engine) ModelSeries() ([]string, error) {
	if e.models == nil {
		return nil, invalidf("no model registry configured")
	}
	names, err := e.models.List()
	if err != nil {
		return nil, err
	}
	if names == nil {
		names = []string{}
	}
	return names, nil
}

// ModelManifest returns the named series' generation index.
func (e *Engine) ModelManifest(name string) (modelreg.Manifest, error) {
	if e.models == nil {
		return modelreg.Manifest{}, invalidf("no model registry configured")
	}
	man, err := e.models.Manifest(name)
	if err != nil {
		if errors.Is(err, modelreg.ErrUnknownSeries) {
			return modelreg.Manifest{}, notFound(name)
		}
		return modelreg.Manifest{}, rejected(err)
	}
	return man, nil
}

// RollbackModel moves the named series' current generation one loadable step
// backwards and, if the series is live, hot-swaps its monitor to the
// rolled-back model. The registry change is durable even when the live swap
// fails (the operator is told; the next restart serves the rollback).
func (e *Engine) RollbackModel(ctx context.Context, name string) (modelreg.Manifest, error) {
	if err := ctx.Err(); err != nil {
		return modelreg.Manifest{}, err
	}
	if e.models == nil {
		return modelreg.Manifest{}, invalidf("no model registry configured")
	}
	man, err := e.models.Rollback(name)
	if err != nil {
		if errors.Is(err, modelreg.ErrUnknownSeries) {
			return modelreg.Manifest{}, notFound(name)
		}
		return modelreg.Manifest{}, rejected(err)
	}
	e.met.ModelRollbacks.Add(1)
	if m, lookupErr := e.lookup(name); lookupErr == nil {
		if swapErr := e.warmSwap(m); swapErr != nil {
			e.log.Warn("rollback recorded but live swap failed; old model serves until restart or retrain",
				"series", name, "err", swapErr)
		} else {
			e.log.Info("model rolled back", "series", name, "gen", man.Current)
		}
	}
	return man, nil
}
