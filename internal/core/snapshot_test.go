package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
	"opprentice/internal/stats"
)

func TestMonitorSaveLoadRoundTrip(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 41)

	mon, err := NewMonitor(d.Series, d.Labels, smallRegistry(t), MonitorConfig{
		Forest:        forest.Config{Trees: 12, Seed: 1},
		SkipInitialCV: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := mon.SaveModel(&snap); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadMonitor(&snap, d.Series, smallRegistry(t), LoadConfig{Trees: 12})
	if err != nil {
		t.Fatal(err)
	}
	if restored.CThld() != mon.CThld() {
		t.Errorf("cThld = %v, want %v", restored.CThld(), mon.CThld())
	}
	if restored.Fingerprint() != mon.Fingerprint() {
		t.Errorf("fingerprint = %016x, want %016x", restored.Fingerprint(), mon.Fingerprint())
	}
	// Both monitors stream the same future points and must agree exactly:
	// same model, same detector state (original kept streaming in Extract;
	// restored replayed the same history).
	future := kpigen.Generate(p, 42)
	for i := 0; i < 200; i++ {
		v := future.Series.Values[i]
		a, b := mon.Step(v), restored.Step(v)
		if a.Probability != b.Probability || a.Anomalous != b.Anomalous {
			t.Fatalf("point %d: original %+v vs restored %+v", i, a, b)
		}
	}
}

func TestLoadMonitorRejectsGarbage(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 43)
	_, err := LoadMonitor(bytes.NewReader([]byte("nonsense")), d.Series, smallRegistry(t), LoadConfig{})
	if err == nil {
		t.Fatal("want error for garbage snapshot")
	}
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("garbage snapshot error = %v, want ErrSnapshotVersion", err)
	}
}

// trainedSnapshot builds a small trained monitor and returns its serialized
// snapshot plus the generating data.
func trainedSnapshot(t *testing.T, trees int) ([]byte, *kpigen.Dataset) {
	t.Helper()
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 47)
	mon, err := NewMonitor(d.Series, d.Labels, smallRegistry(t), MonitorConfig{
		Forest:        forest.Config{Trees: trees, Seed: 1},
		SkipInitialCV: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := mon.SaveModel(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes(), d
}

// TestLoadMonitorVersionSkew is the satellite regression test for the
// version half of the latent snapshot bug: a snapshot from a different
// SaveModel format version must fail with the typed ErrSnapshotVersion, not
// load into a silently wrong monitor.
func TestLoadMonitorVersionSkew(t *testing.T) {
	snap, d := trainedSnapshot(t, 12)

	// Re-encode the DTO with a bumped version, as a future format would.
	var dto snapshotDTO
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	dto.Version = snapshotVersion + 1
	var skewed bytes.Buffer
	if err := gob.NewEncoder(&skewed).Encode(dto); err != nil {
		t.Fatal(err)
	}
	_, err := LoadMonitor(&skewed, d.Series, smallRegistry(t), LoadConfig{Trees: 12})
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version-skewed snapshot: err = %v, want ErrSnapshotVersion", err)
	}
	if errors.Is(err, ErrSnapshotFingerprint) {
		t.Fatalf("version skew misreported as fingerprint mismatch: %v", err)
	}
}

// TestLoadMonitorAcceptsRemovedForestKnobs: forest.Config lost MaxBins and
// Workers, which snapshotDTO gob-embeds. gob omits zero fields and skips
// fields the receiver lacks, so a snapshot written before — knobs unset, or
// set by a caller that no longer exists — must load to the same model and
// configuration.
func TestLoadMonitorAcceptsRemovedForestKnobs(t *testing.T) {
	snap, d := trainedSnapshot(t, 12)
	var dto snapshotDTO
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	// The former wire shape: same field names, the two knobs present and set.
	type formerForestConfig struct {
		Trees                               int
		MajorityVote                        bool
		FeaturesPerSplit, MinLeaf, MaxDepth int
		MaxBins                             int
		Seed                                int64
		Workers                             int
	}
	former := struct {
		Version     int
		Fingerprint uint64
		Forest      []byte
		ForestCfg   formerForestConfig
		CThld       float64
		EWMAAlpha   float64
		Preference  stats.Preference
		MinDuration int
		PredKind    uint8
		EVTQ        float64
	}{
		dto.Version, dto.Fingerprint, dto.Forest,
		formerForestConfig{Trees: dto.ForestCfg.Trees, Seed: dto.ForestCfg.Seed, MaxBins: 256, Workers: 4},
		dto.CThld, dto.EWMAAlpha, dto.Preference, dto.MinDuration, dto.PredKind, dto.EVTQ,
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(former); err != nil {
		t.Fatal(err)
	}
	mon, err := LoadMonitor(&old, d.Series, smallRegistry(t), LoadConfig{Trees: 12})
	if err != nil {
		t.Fatalf("snapshot with the removed knobs: %v", err)
	}
	if mon.fcfg != dto.ForestCfg || mon.CThld() != dto.CThld {
		t.Errorf("loaded forest config %+v cThld %v, want %+v %v", mon.fcfg, mon.CThld(), dto.ForestCfg, dto.CThld)
	}
	var resaved bytes.Buffer
	if err := mon.SaveModel(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), snap) {
		t.Error("a snapshot loaded from the former shape does not save back to today's bytes")
	}
}

// TestLoadMonitorFingerprintMismatch is the satellite regression test for
// the registry half of the latent snapshot bug: before the fingerprint,
// LoadMonitor accepted a snapshot trained under a different detector
// registry or tree count with no detection, silently misclassifying because
// the forest's feature indices no longer matched the detector columns.
func TestLoadMonitorFingerprintMismatch(t *testing.T) {
	snap, d := trainedSnapshot(t, 12)

	// Different tree count.
	_, err := LoadMonitor(bytes.NewReader(snap), d.Series, smallRegistry(t), LoadConfig{Trees: 13})
	if !errors.Is(err, ErrSnapshotFingerprint) {
		t.Fatalf("tree-count skew: err = %v, want ErrSnapshotFingerprint", err)
	}

	// Different detector registry (one configuration dropped).
	dets := smallRegistry(t)
	_, err = LoadMonitor(bytes.NewReader(snap), d.Series, dets[:len(dets)-1], LoadConfig{Trees: 12})
	if !errors.Is(err, ErrSnapshotFingerprint) {
		t.Fatalf("detector-registry skew: err = %v, want ErrSnapshotFingerprint", err)
	}

	// Different accuracy preference.
	_, err = LoadMonitor(bytes.NewReader(snap), d.Series, smallRegistry(t), LoadConfig{
		Trees:      12,
		Preference: stats.Preference{Recall: 0.9, Precision: 0.5},
	})
	if !errors.Is(err, ErrSnapshotFingerprint) {
		t.Fatalf("preference skew: err = %v, want ErrSnapshotFingerprint", err)
	}

	// The matching deployment still loads.
	if _, err := LoadMonitor(bytes.NewReader(snap), d.Series, smallRegistry(t), LoadConfig{Trees: 12}); err != nil {
		t.Fatalf("matching deployment failed to load: %v", err)
	}
}

func TestForestSaveLoadRoundTrip(t *testing.T) {
	cols := [][]float64{make([]float64, 400), make([]float64, 400)}
	labels := make([]bool, 400)
	for i := range labels {
		labels[i] = i%9 == 0
		if labels[i] {
			cols[0][i] = 5
		} else {
			cols[0][i] = float64(i % 3)
		}
		cols[1][i] = float64(i % 7)
	}
	f := forest.Train(cols, labels, forest.Config{Trees: 9, Seed: 3})
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := forest.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTrees() != f.NumTrees() {
		t.Fatalf("trees = %d, want %d", g.NumTrees(), f.NumTrees())
	}
	a, b := f.ProbAll(cols), g.ProbAll(cols)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d diverges: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForestLoadRejectsGarbage(t *testing.T) {
	if _, err := forest.Load(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("want error")
	}
}
