package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

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

// The model artifact codec. Both artifacts a training round publishes, the
// verdict model and the anomaly-type head, are fixed-width little-endian
// records (inside the registry's CRC32-C frame):
//
//	verdict: "OPVM" version:u32 fingerprint:u64 cthld:f64 predictor:u8
//	         ewma_alpha:f64 evt_q:f64 recall:f64 precision:f64
//	         trees:i64 seed:i64 forest
//	type:    "OPTM" version:u32 fingerprint:u64 multi-class record
//
// where forest and the multi-class record are the forest package's records:
// the flat node arrays inference walks, nothing else. Detector streaming
// state is deliberately not stored: detectors re-warm by replaying recent
// history, which is simpler and correct by construction. Neither is the EVT
// fit state: a restored EVT monitor starts from the saved cThld and
// re-establishes its tail at the next retrain, which keeps twin restores
// bit-identical.
const (
	verdictMagic = "OPVM"
	typeMagic    = "OPTM"
	// artifactVersion is the codec version both artifacts carry. Version 3
	// is the first fixed-width one: versions 1 and 2 were gob streams, which
	// fail the magic check and so read as version skew.
	artifactVersion = 3
	// artifactPrefix is the magic, the version and the fingerprint.
	artifactPrefix = 16
	// verdictHeader is the verdict artifact's bytes before its forest.
	verdictHeader = artifactPrefix + 8 + 1 + 8*6
)

// appendPrefix appends an artifact's magic, codec version and fingerprint.
func appendPrefix(b []byte, magic string, fingerprint uint64) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, artifactVersion)
	return binary.LittleEndian.AppendUint64(b, fingerprint)
}

// readPrefix checks an artifact's magic and codec version and returns its
// fingerprint; a mismatch wraps ErrSnapshotVersion.
func readPrefix(b []byte, magic string) (uint64, error) {
	if len(b) < artifactPrefix || string(b[:4]) != magic {
		return 0, fmt.Errorf("core: artifact lacks the %q magic of this codec (%w)", magic, ErrSnapshotVersion)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != artifactVersion {
		return 0, fmt.Errorf("core: artifact version %d, want %d (%w)", v, artifactVersion, ErrSnapshotVersion)
	}
	return binary.LittleEndian.Uint64(b[8:]), nil
}

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
	var alpha, q float64
	switch p := m.pred.(type) {
	case *CThldPredictor:
		alpha = p.ewma.Alpha
	case *EVTPredictor:
		q = p.Q()
	}
	le := binary.LittleEndian
	b := appendPrefix(nil, verdictMagic, m.Fingerprint())
	b = le.AppendUint64(b, math.Float64bits(m.cthld))
	b = append(b, uint8(m.pred.Kind()))
	for _, v := range []float64{alpha, q, m.pref.Recall, m.pref.Precision} {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint64(b, uint64(m.fcfg.Trees))
	b = le.AppendUint64(b, uint64(m.fcfg.Seed))
	_, err := w.Write(m.model.Append(b))
	return err
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
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot: %v (%w)", err, ErrSnapshotVersion)
	}
	fingerprint, err := readPrefix(b, verdictMagic)
	if err != nil {
		return nil, err
	}
	if len(b) < verdictHeader {
		return nil, fmt.Errorf("core: snapshot truncated at %d bytes (%w)", len(b), ErrSnapshotVersion)
	}
	if want := ModelFingerprint(dets, cfg.Trees, cfg.Preference); fingerprint != want {
		return nil, fmt.Errorf("core: snapshot fingerprint %016x, deployment is %016x: trained under a different detector registry, tree count, or preference (%w)",
			fingerprint, want, ErrSnapshotFingerprint)
	}
	// The fields in SaveModel's order.
	le, p := binary.LittleEndian, b[artifactPrefix:verdictHeader]
	f64 := func() float64 { v := math.Float64frombits(le.Uint64(p)); p = p[8:]; return v }
	cthld := f64()
	kind := PredictorKind(p[0])
	p = p[1:]
	alpha, q := f64(), f64()
	pref := stats.Preference{Recall: f64(), Precision: f64()}
	fcfg := forest.Config{Trees: int(int64(le.Uint64(p))), Seed: int64(le.Uint64(p[8:]))}
	if kind > PredictEVT {
		return nil, fmt.Errorf("core: snapshot names predictor %d (%w)", kind, ErrSnapshotVersion)
	}
	model, rest, err := forest.Load(b[verdictHeader:], len(dets))
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("forest: %d bytes after the record", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("core: %v (%w)", err, ErrSnapshotVersion)
	}
	m := &Monitor{
		dets:    dets,
		model:   model,
		fcfg:    fcfg,
		pref:    pref,
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
	pred := newPredictor(kind, alpha, q, pref)
	pred.Seed(cthld)
	m.pred = pred
	m.dynamic = pred.Kind() != PredictEWMA
	m.cthld = cthld
	return m, nil
}

// SaveTypeModel writes the trained anomaly-type head to w: its own artifact
// kind in the multi-model manifest, stamped with the same deployment
// fingerprint as the verdict artifact and checked separately, so a damaged
// type artifact can be quarantined without touching the verdict path. It
// errors when no type head is trained; callers gate on HasTypeModel.
func (m *Monitor) SaveTypeModel(w io.Writer) error {
	if m.typeModel == nil {
		return errors.New("core: no anomaly-type head trained")
	}
	_, err := w.Write(m.typeModel.Append(appendPrefix(nil, typeMagic, m.Fingerprint())))
	return err
}

// RestoreTypeModel attaches a SaveTypeModel artifact to a restored monitor.
// Version and fingerprint mismatches fail with the same typed errors as
// LoadMonitor, leaving the monitor's existing type head (usually nil)
// untouched — the verdict path never degrades on the type head's account.
func (m *Monitor) RestoreTypeModel(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: read type snapshot: %v (%w)", err, ErrSnapshotVersion)
	}
	fingerprint, err := readPrefix(b, typeMagic)
	if err != nil {
		return err
	}
	if want := m.Fingerprint(); fingerprint != want {
		return fmt.Errorf("core: type snapshot fingerprint %016x, deployment is %016x (%w)", fingerprint, want, ErrSnapshotFingerprint)
	}
	tm, rest, err := forest.LoadMulti(b[artifactPrefix:], len(m.dets))
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("forest: %d bytes after the record", len(rest))
	}
	if err != nil {
		return fmt.Errorf("core: %v (%w)", err, ErrSnapshotVersion)
	}
	m.typeModel = tm
	return nil
}
