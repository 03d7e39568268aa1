package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
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
func trainedSnapshot(t testing.TB, trees int) ([]byte, *kpigen.Dataset) {
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

// TestLoadMonitorVersionSkew: a snapshot from a different codec version
// must fail with the typed ErrSnapshotVersion, not load into a silently wrong
// monitor, and not read as a fingerprint mismatch.
func TestLoadMonitorVersionSkew(t *testing.T) {
	snap, d := trainedSnapshot(t, 12)
	skewed := bytes.Clone(snap)
	binary.LittleEndian.PutUint32(skewed[4:], artifactVersion+1)
	_, err := LoadMonitor(bytes.NewReader(skewed), d.Series, smallRegistry(t), LoadConfig{Trees: 12})
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version-skewed snapshot: err = %v, want ErrSnapshotVersion", err)
	}
	if errors.Is(err, ErrSnapshotFingerprint) {
		t.Fatalf("version skew misreported as fingerprint mismatch: %v", err)
	}
}

// TestLoadMonitorRefusesParentFormat pins the upgrade path on real bytes:
// testdata/verdict-v2.snapshot is a gob snapshot (version 2) that SaveModel
// wrote before the fixed-width codec, for smallRegistry, 3 trees, over the
// data trainedSnapshot uses. It must fail with ErrSnapshotVersion, which the
// engine's restore ladder quarantines and answers with one cold retrain.
func TestLoadMonitorRefusesParentFormat(t *testing.T) {
	old, err := os.ReadFile("testdata/verdict-v2.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	_, d := trainedSnapshot(t, 3)
	_, err = LoadMonitor(bytes.NewReader(old), d.Series, smallRegistry(t), LoadConfig{Trees: 3})
	if !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotFingerprint) {
		t.Fatalf("a version-2 snapshot: err = %v, want ErrSnapshotVersion alone", err)
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
	saved := f.Append(nil)
	g, rest, err := forest.Load(saved, len(cols))
	if err != nil || len(rest) != 0 {
		t.Fatalf("load: %v (%d bytes left)", err, len(rest))
	}
	if !bytes.Equal(g.Append(nil), saved) {
		t.Fatal("the loaded forest saves different bytes")
	}
	a, b := f.ProbAll(cols), g.ProbAll(cols)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d diverges: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := forest.Load([]byte{1, 2, 3}, 1); err == nil {
		t.Error("want error")
	}
}

// FuzzLoadMonitor feeds LoadMonitor arbitrary bytes, as a registry artifact's
// checksum can sit over anything: it must never panic, must fail only with
// ErrSnapshotVersion or ErrSnapshotFingerprint, and a monitor it accepts must
// classify points.
func FuzzLoadMonitor(f *testing.F) {
	snap, d := trainedSnapshot(f, 1) // one tree keeps minimizing cheap
	old, err := os.ReadFile("testdata/verdict-v2.snapshot")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:verdictHeader+20])
	f.Add(old)
	recent := d.Series.Slice(d.Series.Len()-168, d.Series.Len())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := LoadMonitor(bytes.NewReader(b), recent, smallRegistry(t), LoadConfig{Trees: 1})
		if err != nil {
			if !errors.Is(err, ErrSnapshotVersion) && !errors.Is(err, ErrSnapshotFingerprint) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		for _, v := range []float64{0, 1e9, -1e9} {
			m.Step(v)
		}
	})
}
