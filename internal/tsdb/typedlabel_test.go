package tsdb

import (
	"testing"
)

func TestTypedLabelRoundTrip(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 1, End: 3, Anomalous: true, Class: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []bool{false, true, true, false, false}
	wantTypes := []uint8{0, 2, 2, 0, 0}
	if len(got.Types) != len(got.Values) {
		t.Fatalf("types len = %d, want %d", len(got.Types), len(got.Values))
	}
	for i := range wantTypes {
		if got.Labels[i] != wantLabels[i] || got.Types[i] != wantTypes[i] {
			t.Fatalf("replay = %v / %v", got.Labels, got.Types)
		}
	}
	// Points appended after the typed label keep the channels parallel.
	if err := s.AppendPoints(ctx, "pv", []float64{6}); err != nil {
		t.Fatal(err)
	}
	got, err = s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Types) != 6 || got.Types[5] != 0 {
		t.Fatalf("types after late append = %v", got.Types)
	}
}

// TestTypedLabelUndoClearsClass: un-labeling a typed range — through either
// the plain or the typed op — zeroes the class channel so Labels and Types
// can never disagree about anomalousness.
func TestTypedLabelUndoClearsClass(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 0, End: 4, Anomalous: true, Class: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLabel(ctx, "pv", 0, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 2, End: 3, Anomalous: false, Class: 5}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []uint8{0, 0, 0, 3}
	for i, want := range wantTypes {
		if got.Types[i] != want {
			t.Fatalf("types = %v, want %v", got.Types, wantTypes)
		}
		if got.Labels[i] != (want != 0) {
			t.Fatalf("labels = %v disagree with types %v", got.Labels, got.Types)
		}
	}
}

// TestUntypedLogLoadsNilTypes: a log written without typed labels — the
// pre-typed format — replays with Types nil, not an all-zero slice, so
// callers can tell "never typed" from "typed none".
func TestUntypedLogLoadsNilTypes(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLabel(ctx, "pv", 0, 2, true); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if got.Types != nil {
		t.Fatalf("untyped log loaded Types = %v, want nil", got.Types)
	}
}

func TestTypedLabelSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 0, End: 1, Anomalous: true, Class: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Types) != 3 || got.Types[0] != 4 || got.Types[1] != 0 {
		t.Fatalf("types after reopen = %v", got.Types)
	}
}

// TestMetaV2RoundTrip: a series with non-default predictor config persists
// it through the opMetaV2 record and a reopen; a default-config series
// keeps writing the original opMeta byte stream.
func TestMetaV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	evt := meta
	evt.Name = "evt"
	evt.Predictor = 1
	evt.EVTQ = 0.02
	if err := s.CreateSeries(evt); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Load("evt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != evt {
		t.Fatalf("metaV2 = %+v, want %+v", got.Meta, evt)
	}
	plain, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Meta.Predictor != 0 || plain.Meta.EVTQ != 0 {
		t.Fatalf("default meta grew predictor config: %+v", plain.Meta)
	}
}

func TestTypedLabelValidation(t *testing.T) {
	s := openTemp(t)
	if err := s.write(ctx, Record{Name: "pv", Start: 3, End: 3, Anomalous: true, Class: 1}); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := s.write(ctx, Record{Name: "pv", Start: -1, End: 2, Anomalous: true, Class: 1}); err == nil {
		t.Fatal("negative start accepted")
	}
	if err := s.write(ctx, Record{Name: "../evil", Start: 0, End: 1, Anomalous: true, Class: 1}); err == nil {
		t.Fatal("invalid name accepted")
	}
}
