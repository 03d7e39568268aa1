package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"opprentice/internal/detectors"
	"opprentice/internal/ml/forest"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
)

// Typed snapshot errors. LoadMonitor wraps exactly one of these so callers
// (the engine's warm-restart path, operator tooling) can distinguish "this
// artifact can never load" from "this artifact was trained under a different
// deployment" without string matching.
var (
	// ErrSnapshotVersion: the snapshot was written by an incompatible
	// SaveModel version (or is not a snapshot at all).
	ErrSnapshotVersion = errors.New("snapshot version mismatch")
	// ErrSnapshotFingerprint: the snapshot decodes fine but was trained under
	// a different detector registry, forest size, or accuracy preference than
	// the one it is being loaded into. Loading it anyway would silently
	// misclassify: the forest's feature indices would no longer line up with
	// the live detector columns.
	ErrSnapshotFingerprint = errors.New("snapshot fingerprint mismatch")
)

// snapshotDTO is the gob wire form of a monitor's model state. Detector
// streaming state is deliberately not serialized: detectors re-warm by
// replaying recent history, which is simpler and correct by construction.
// Snapshots written with fields since removed (MinDuration, forest knobs)
// still load: gob skips a field the target type lacks.
type snapshotDTO struct {
	Version     int
	Fingerprint uint64
	Forest      []byte
	ForestCfg   forest.Config
	CThld       float64
	EWMAAlpha   float64
	Preference  stats.Preference
	// PredKind and EVTQ (added with the EVT predictor) ride without a
	// version bump: gob decodes a legacy snapshot with both zero, which is
	// exactly PredictEWMA, and a legacy binary ignores the new fields. The
	// EVT fit state itself is never serialized — a restored EVT monitor
	// starts from the saved CThld and re-establishes its tail at the next
	// retrain, which keeps twin restores bit-identical.
	PredKind uint8
	EVTQ     float64
}

const snapshotVersion = 2

// FingerprintNames hashes an ordered detector-configuration name list plus
// the forest size and accuracy preference into a deployment fingerprint
// (FNV-1a 64). Two monitors have the same fingerprint exactly when their
// feature columns line up and their threshold tuning is comparable, so a
// saved model from one can serve as the other.
func FingerprintNames(names []string, trees int, pref stats.Preference) uint64 {
	if pref == (stats.Preference{}) {
		pref = stats.Preference{Recall: 0.66, Precision: 0.66}
	}
	if trees <= 0 {
		trees = 60
	}
	h := fnv.New64a()
	for _, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "trees=%d|recall=%g|precision=%g", trees, pref.Recall, pref.Precision)
	return h.Sum64()
}

// ModelFingerprint is FingerprintNames over live detector instances.
func ModelFingerprint(dets []detectors.Detector, trees int, pref stats.Preference) uint64 {
	return FingerprintNames(detectors.Names(dets), trees, pref)
}

// Fingerprint returns the monitor's own deployment fingerprint — the value
// SaveModel embeds and LoadMonitor verifies.
func (m *Monitor) Fingerprint() uint64 {
	return ModelFingerprint(m.dets, m.fcfg.Trees, m.pref)
}

// SaveModel writes the monitor's trained model (forest, cThld state,
// preference, forest configuration) to w, stamped with the deployment
// fingerprint. Pair it with LoadMonitor on restart.
func (m *Monitor) SaveModel(w io.Writer) error {
	var fbuf bytes.Buffer
	if err := m.model.Save(&fbuf); err != nil {
		return err
	}
	dto := snapshotDTO{
		Version:     snapshotVersion,
		Fingerprint: m.Fingerprint(),
		Forest:      fbuf.Bytes(),
		ForestCfg:   m.fcfg,
		CThld:       m.cthld,
		Preference:  m.pref,
		PredKind:    uint8(m.pred.Kind()),
	}
	switch p := m.pred.(type) {
	case *CThldPredictor:
		dto.EWMAAlpha = p.ewma.Alpha
	case *EVTPredictor:
		dto.EVTQ = p.Q()
	}
	return gob.NewEncoder(w).Encode(dto)
}

// LoadConfig tells LoadMonitor what deployment the snapshot is being loaded
// into, so version skew and fingerprint drift are detected instead of
// silently misclassifying.
type LoadConfig struct {
	// Trees is the forest size the series is configured with (default 60).
	Trees int
	// Preference is the series' accuracy preference (default 0.66 / 0.66).
	Preference stats.Preference
	// OnDetectorPanic mirrors MonitorConfig.OnDetectorPanic for the restored
	// monitor's sandboxing.
	OnDetectorPanic func(name string, recovered any)
}

// LoadMonitor restores a monitor from a SaveModel snapshot. recent must hold
// enough trailing history to re-warm the detectors (a few weeks: the longest
// warm-up in the default registry is 5 weeks); dets are fresh detector
// instances matching the ones the model was trained with.
//
// The snapshot's embedded fingerprint is checked against the fingerprint of
// (dets, cfg.Trees, cfg.Preference): a snapshot trained under a different
// detector registry, tree count, or preference returns an error wrapping
// ErrSnapshotFingerprint; an incompatible snapshot format returns one
// wrapping ErrSnapshotVersion. Both are detected before any model state is
// used.
func LoadMonitor(r io.Reader, recent *timeseries.Series, dets []detectors.Detector, cfg LoadConfig) (*Monitor, error) {
	var dto snapshotDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %v (%w)", err, ErrSnapshotVersion)
	}
	if dto.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d (%w)", dto.Version, snapshotVersion, ErrSnapshotVersion)
	}
	if want := ModelFingerprint(dets, cfg.Trees, cfg.Preference); dto.Fingerprint != want {
		return nil, fmt.Errorf("core: snapshot fingerprint %016x, deployment is %016x: trained under a different detector registry, tree count, or preference (%w)",
			dto.Fingerprint, want, ErrSnapshotFingerprint)
	}
	model, err := forest.Load(bytes.NewReader(dto.Forest))
	if err != nil {
		return nil, fmt.Errorf("core: %v (%w)", err, ErrSnapshotVersion)
	}
	m := &Monitor{
		dets:    dets,
		model:   model,
		fcfg:    dto.ForestCfg,
		pref:    dto.Preference,
		points:  recent.Len(),
		dead:    make([]bool, len(dets)),
		onPanic: cfg.OnDetectorPanic,
	}
	// Re-warm the detectors by replaying the recent history from Reset,
	// severities discarded. A detector that panics while re-warming is
	// sandboxed (marked dead) like in Monitor.StepBatch, instead of failing
	// the whole restore.
	var discard [1]float64
	for j, d := range dets {
		if _, r := stepColumn(d, true, recent.Values, recent.Values, discard[:], 0, 0); r != nil {
			m.kill(j, r)
		}
	}
	pred := newPredictor(PredictorKind(dto.PredKind), dto.EWMAAlpha, dto.EVTQ, dto.Preference)
	pred.Seed(dto.CThld)
	m.pred = pred
	m.dynamic = pred.Kind() != PredictEWMA
	m.cthld = dto.CThld
	return m, nil
}

// typeDTO is the gob wire form of the anomaly-type head: its own artifact
// kind in the multi-model manifest, serialized and fingerprint-checked
// separately from the verdict snapshot so a corrupt type artifact can be
// quarantined without touching the verdict path.
type typeDTO struct {
	Version     int
	Fingerprint uint64
	Model       []byte
}

const typeSnapshotVersion = 1

// SaveTypeModel writes the trained anomaly-type head to w, stamped with the
// same deployment fingerprint as the verdict snapshot. It errors when no
// type head is trained; callers gate on HasTypeModel.
func (m *Monitor) SaveTypeModel(w io.Writer) error {
	if m.typeModel == nil {
		return errors.New("core: no anomaly-type head trained")
	}
	var buf bytes.Buffer
	if err := m.typeModel.Save(&buf); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(typeDTO{
		Version:     typeSnapshotVersion,
		Fingerprint: m.Fingerprint(),
		Model:       buf.Bytes(),
	})
}

// RestoreTypeModel attaches a SaveTypeModel artifact to a restored monitor.
// Version and fingerprint mismatches fail with the same typed errors as
// LoadMonitor, leaving the monitor's existing type head (usually nil)
// untouched — the verdict path never degrades on the type head's account.
func (m *Monitor) RestoreTypeModel(r io.Reader) error {
	var dto typeDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return fmt.Errorf("core: decode type snapshot: %v (%w)", err, ErrSnapshotVersion)
	}
	if dto.Version != typeSnapshotVersion {
		return fmt.Errorf("core: type snapshot version %d, want %d (%w)", dto.Version, typeSnapshotVersion, ErrSnapshotVersion)
	}
	if want := m.Fingerprint(); dto.Fingerprint != want {
		return fmt.Errorf("core: type snapshot fingerprint %016x, deployment is %016x (%w)", dto.Fingerprint, want, ErrSnapshotFingerprint)
	}
	tm, err := forest.LoadMulti(bytes.NewReader(dto.Model))
	if err != nil {
		return fmt.Errorf("core: %v (%w)", err, ErrSnapshotVersion)
	}
	m.typeModel = tm
	return nil
}
