package core

// Fault-injection tests for the detector sandboxing layer: a panicking
// detector configuration must degrade to an all-NaN feature column, never
// crash extraction or the online monitor.

import (
	"bytes"
	"math"
	"testing"

	"opprentice/internal/detectors"
	"opprentice/internal/faultinject"
	"opprentice/internal/ml/forest"
)

func TestFaultExtractSandboxesPanickingDetector(t *testing.T) {
	s, _ := testKPI(t, 9, 7)
	ds := append(smallRegistry(t),
		detectors.Detector(&faultinject.PanickingDetector{ConfigName: "boom(now)"}))

	f, err := Extract(s, ds, ExtractConfig{})
	if err != nil {
		t.Fatalf("Extract with panicking detector: %v", err)
	}
	if got := f.DegradedCount(); got != 1 {
		t.Fatalf("DegradedCount = %d, want 1 (degraded: %v)", got, f.Degraded)
	}
	if f.Degraded[0] != "boom(now)" {
		t.Errorf("Degraded = %v, want [boom(now)]", f.Degraded)
	}
	// The faulty column is all-NaN ("never ready").
	col, err := f.ColumnByName("boom(now)")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range col {
		if !math.IsNaN(v) {
			t.Fatalf("degraded column has non-NaN %v at %d", v, i)
		}
	}
	// Healthy columns are unharmed.
	ewma, err := f.ColumnByName("ewma(alpha=0.50)")
	if err != nil {
		// Name formatting may differ; fall back to any healthy column.
		ewma = f.Cols[2]
	}
	if math.IsNaN(ewma[len(ewma)-1]) {
		t.Error("healthy column should be warm at the end")
	}
}

func TestFaultExtractSandboxesMidStreamPanic(t *testing.T) {
	s, _ := testKPI(t, 9, 8)
	ds := append(smallRegistry(t),
		detectors.Detector(&faultinject.PanickingDetector{ConfigName: "boom(later)", PanicAfter: 100}))
	f, err := Extract(s, ds, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.DegradedCount(); got != 1 {
		t.Fatalf("DegradedCount = %d, want 1", got)
	}
	col, err := f.ColumnByName("boom(later)")
	if err != nil {
		t.Fatal(err)
	}
	// Even the points stepped before the panic read NaN: a configuration
	// that panicked mid-stream is wholly untrustworthy.
	for i, v := range col {
		if !math.IsNaN(v) {
			t.Fatalf("degraded column has non-NaN %v at %d", v, i)
		}
	}
}

func TestFaultMonitorStepSurvivesPanickingDetector(t *testing.T) {
	s, labels := testKPI(t, 9, 9)
	var panicked []string
	ds := append(smallRegistry(t),
		// Survives training extraction (Reset doesn't clear the budget, so
		// give it enough for training, then let it blow up online).
		detectors.Detector(&faultinject.PanickingDetector{ConfigName: "boom(online)", PanicAfter: s.Len() + 1}))
	mon, err := NewMonitor(s, labels, ds, MonitorConfig{
		Forest:        forest.Config{Trees: 10, Seed: 1},
		SkipInitialCV: true,
		OnDetectorPanic: func(name string, _ any) {
			panicked = append(panicked, name)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mon.DegradedDetectors() != 0 {
		t.Fatalf("degraded before online panic: %d", mon.DegradedDetectors())
	}
	// Step enough points that the faulty detector panics on the 2nd step;
	// every point must still get a verdict.
	for i := 0; i < 10; i++ {
		v := mon.Step(s.Values[i])
		if v.Decided != 1 {
			t.Fatalf("step %d: no verdict (Decided=%d)", i, v.Decided)
		}
		if math.IsNaN(v.Probability) {
			t.Fatalf("step %d: NaN probability", i)
		}
	}
	if mon.DetectorPanics() == 0 {
		t.Error("DetectorPanics = 0, want > 0")
	}
	if mon.DegradedDetectors() != 1 {
		t.Errorf("DegradedDetectors = %d, want 1", mon.DegradedDetectors())
	}
	if len(panicked) == 0 || panicked[0] != "boom(online)" {
		t.Errorf("OnDetectorPanic calls = %v, want [boom(online)]", panicked)
	}
}

func TestFaultNewMonitorMarksTrainingPanicDegraded(t *testing.T) {
	s, labels := testKPI(t, 9, 10)
	ds := append(smallRegistry(t),
		detectors.Detector(&faultinject.PanickingDetector{ConfigName: "boom(train)"}))
	mon, err := NewMonitor(s, labels, ds, MonitorConfig{Forest: forest.Config{Trees: 10, Seed: 1}, SkipInitialCV: true})
	if err != nil {
		t.Fatalf("NewMonitor with panicking detector: %v", err)
	}
	if mon.DegradedDetectors() != 1 {
		t.Errorf("DegradedDetectors = %d, want 1", mon.DegradedDetectors())
	}
	if mon.DetectorPanics() != 1 {
		t.Errorf("DetectorPanics = %d, want 1", mon.DetectorPanics())
	}
	// The degraded detector is never stepped again, so Step stays safe.
	for i := 0; i < 5; i++ {
		mon.Step(s.Values[i])
	}
	if mon.DetectorPanics() != 1 {
		t.Errorf("dead detector was re-stepped: panics = %d", mon.DetectorPanics())
	}
}

// TestFaultLoadMonitorReportsRewarmPanic: a configuration that panics while a
// restored monitor re-warms is marked dead like an online panic, and the
// callback gets the panic's value — the restore observed it directly.
func TestFaultLoadMonitorReportsRewarmPanic(t *testing.T) {
	s, labels := testKPI(t, 9, 11)
	withFaulty := func(after int) []detectors.Detector {
		return append(smallRegistry(t),
			detectors.Detector(&faultinject.PanickingDetector{ConfigName: "boom(rewarm)", PanicAfter: after}))
	}
	mon, err := NewMonitor(s, labels, withFaulty(s.Len()), MonitorConfig{Forest: forest.Config{Trees: 10, Seed: 1}, SkipInitialCV: true})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := mon.SaveModel(&snap); err != nil {
		t.Fatal(err)
	}
	var reported []any
	restored, err := LoadMonitor(&snap, s, withFaulty(100), LoadConfig{Trees: 10, OnDetectorPanic: func(name string, recovered any) {
		if name != "boom(rewarm)" {
			t.Errorf("panic reported for %s", name)
		}
		reported = append(reported, recovered)
	}})
	if err != nil {
		t.Fatalf("LoadMonitor with a detector panicking in re-warm: %v", err)
	}
	if len(reported) != 1 || reported[0] == nil {
		t.Fatalf("OnDetectorPanic calls = %v, want one with the panic value", reported)
	}
	if restored.DegradedDetectors() != 1 || restored.DetectorPanics() != 1 {
		t.Fatalf("restored monitor: %d degraded, %d panics, want 1 and 1", restored.DegradedDetectors(), restored.DetectorPanics())
	}
	restored.Step(s.Values[0]) // the dead configuration is not stepped again
	if restored.DetectorPanics() != 1 {
		t.Fatalf("dead detector was re-stepped: panics = %d", restored.DetectorPanics())
	}
}
