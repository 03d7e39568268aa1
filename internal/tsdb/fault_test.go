package tsdb

// Fault-injection tests for WAL hardening: frame checksums must turn bit
// rot into ErrCorrupt (not silently-wrong replays), torn segment tails must
// stay tolerated and lose only unacknowledged writes, and Quarantine must
// retire a damaged series so the rest of the store keeps working.

import (
	"errors"
	"testing"

	"opprentice/internal/faultinject"
)

// seedSeries writes a small multi-record series through the public API:
// one create, two point batches, one label — four commit frames.
func seedSeries(t *testing.T, s *Store, name string) {
	t.Helper()
	m := meta
	m.Name = name
	if err := s.CreateSeries(m); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, name, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, name, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: name, Start: 1, End: 3, Anomalous: true}); err != nil {
		t.Fatal(err)
	}
}

// onlySegment returns the path of the single segment file a one-series
// store has written (segments are created lazily, so exactly one exists).
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segPaths(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one", segs)
	}
	return segs[0]
}

func TestFaultLoadDetectsPayloadBitFlip(t *testing.T) {
	s := openTemp(t)
	seedSeries(t, s, "pv")
	// Flip one byte inside a points bitstream. Without checksums this could
	// replay as a silently wrong value; with them it must be ErrCorrupt.
	if err := CorruptPointsFrame(s.dir, "pv"); err != nil {
		t.Fatal(err)
	}
	_, err := s.Load("pv")
	if err == nil {
		t.Fatal("bit-flipped points frame accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want errors.Is(_, ErrCorrupt)", err)
	}
}

func TestFaultTornSegmentTailLosesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedSeries(t, s, "pv")
	s.Close()
	// Chop bytes off the newest segment: a crash mid-group-commit. The last
	// frame (the label) is destroyed; every earlier fsync-acknowledged frame
	// must replay intact.
	if err := faultinject.TruncateTail(onlySegment(t, dir), 5); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Load("pv")
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(got.Values) != 6 {
		t.Errorf("values = %v, want the 6 intact points", got.Values)
	}
	// The torn frame was the label, so no point should be labeled.
	for i, l := range got.Labels {
		if l {
			t.Errorf("label %d survived a torn label frame", i)
		}
	}
	// The appender truncates the torn tail before its first write; the
	// store must accept appends and stay consistent afterwards.
	if err := s2.AppendPoints(ctx, "pv", []float64{7}); err != nil {
		t.Fatal(err)
	}
	got, err = s2.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 7 || got.Values[6] != 7 {
		t.Errorf("post-recovery replay = %v", got.Values)
	}
}

func TestFaultGarbageTailForgivenAsTorn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedSeries(t, s, "pv")
	s.Close()
	// Garbage after the last complete frame is indistinguishable from a
	// torn write and must be forgiven, losing nothing acknowledged.
	if err := faultinject.AppendGarbage(onlySegment(t, dir), nil); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Load("pv")
	if err != nil {
		t.Fatalf("garbage tail should be forgiven: %v", err)
	}
	if len(got.Values) != 6 || !got.Labels[1] {
		t.Errorf("replay = %v / %v, want all 6 acked points and the label", got.Values, got.Labels)
	}
}

func TestFaultMidLogCorruptionDetectedAfterMoreWrites(t *testing.T) {
	s := openTemp(t)
	seedSeries(t, s, "pv")
	// Corrupt the latest points frame, then keep writing: the damage is now
	// mid-log, behind valid frames, and must still surface as ErrCorrupt.
	if err := CorruptPointsFrame(s.dir, "pv"); err != nil {
		t.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 0, End: 1, Anomalous: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("pv"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want errors.Is(_, ErrCorrupt)", err)
	}
}

func TestFaultQuarantineTombstonesSegmentSeries(t *testing.T) {
	s := openTemp(t)
	seedSeries(t, s, "bad")
	seedSeries(t, s, "good")
	if err := CorruptPointsFrame(s.dir, "bad"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("bad"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("setup: corrupted series should fail Load, got %v", err)
	}

	if _, err := s.Quarantine("bad"); err != nil {
		t.Fatalf("Quarantine: %v", err)
	}
	// The tombstone removes the series from the catalog...
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "good" {
		t.Errorf("List = %v, want [good]", names)
	}
	if _, err := s.Load("bad"); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("Load after quarantine = %v, want a not-found error", err)
	}
	// ...while the damaged frames stay on disk for inspection.
	stats, err := Dump(s.dir, discard{}, DumpOptions{Series: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records == 0 {
		t.Error("quarantine dropped the damaged frames from disk")
	}
	if stats.CorruptFrames == 0 {
		t.Error("the corrupt frame is no longer visible to Dump")
	}
	// The store keeps serving healthy series, and the name is reusable.
	if _, err := s.Load("good"); err != nil {
		t.Errorf("healthy series must survive a sibling's quarantine: %v", err)
	}
	m := meta
	m.Name = "bad"
	if err := s.CreateSeries(m); err != nil {
		t.Fatalf("re-create after quarantine: %v", err)
	}
	if err := s.AppendPoints(ctx, "bad", []float64{42}); err != nil {
		t.Fatalf("append to re-created series: %v", err)
	}
	if got, err := s.Load("bad"); err != nil || len(got.Values) != 1 || got.Values[0] != 42 {
		t.Errorf("re-created series = %+v, err %v", got, err)
	}
	// Quarantining a series that has no log is an error, not a silent no-op.
	if _, err := s.Quarantine("ghost"); err == nil {
		t.Error("quarantining a missing series should fail")
	}
}

// discard is an io.Writer black hole for Dump output in assertions.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
