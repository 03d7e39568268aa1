package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"opprentice/internal/tsdb"
)

var update = flag.Bool("update", false, "regenerate the wal cat fixture segment and golden file")

// genFixture writes the committed fixture data directory: one shard holding
// one segment with a create, two point batches, a label, a second series, a
// tombstone — and one deliberately corrupted points frame. Every write is
// awaited before the next is made, so each commits in a frame of its own, the
// frame sequence is deterministic and the golden file stays stable across
// regenerations.
func genFixture(t *testing.T, dir string) {
	t.Helper()
	ctx := context.Background()
	s, err := tsdb.Open(dir, tsdb.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	meta := tsdb.Meta{
		Name:            "pv",
		Start:           time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC),
		IntervalSeconds: 60,
		Recall:          0.66,
		Precision:       0.66,
		Trees:           60,
	}
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{10.5, 11, 11.5}); err != nil {
		t.Fatal(err)
	}
	label := make(chan error, 1)
	if err := s.Submit(ctx, tsdb.Record{Name: "pv", Start: 1, End: 3, Anomalous: true}, func(err error) { label <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-label; err != nil {
		t.Fatal(err)
	}
	meta.Name = "gone"
	meta.IntervalSeconds = 300
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "gone", []float64{7, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quarantine("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{12, 80}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the newest pv points frame so the golden output pins the
	// crc=FAIL rendering and corruption attribution.
	if err := tsdb.CorruptPointsFrame(dir, "pv"); err != nil {
		t.Fatal(err)
	}
}

// TestWalCatGolden pins the exact `opprenticectl wal cat` output over a
// committed fixture segment: the decoder, the corrupt-frame rendering and
// the stats line are all part of the operator-facing contract. Run with
// -update to regenerate fixture and golden together after a format change.
func TestWalCatGolden(t *testing.T) {
	fixture := filepath.Join("testdata", "walcat")
	golden := filepath.Join("testdata", "walcat.golden")
	if *update {
		if err := os.RemoveAll(fixture); err != nil {
			t.Fatal(err)
		}
		genFixture(t, fixture)
	}

	var out bytes.Buffer
	if err := walCat(&out, fixture, tsdb.DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("wal cat output drifted from golden:\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}

	// The series filter narrows output to one name's records.
	out.Reset()
	if err := walCat(&out, fixture, tsdb.DumpOptions{Series: "gone"}); err != nil {
		t.Fatal(err)
	}
	filtered := out.String()
	if !bytes.Contains([]byte(filtered), []byte("tombstone")) {
		t.Errorf("-series gone output lost the tombstone:\n%s", filtered)
	}
	if bytes.Contains([]byte(filtered), []byte(`"pv"`)) {
		t.Errorf("-series gone output leaked pv records:\n%s", filtered)
	}
}

// TestWalCatRefusesMissingDir pins the error path (no data dir, no panic).
func TestWalCatRefusesMissingDir(t *testing.T) {
	if err := walCat(io.Discard, filepath.Join(t.TempDir(), "nope"), tsdb.DumpOptions{}); err == nil {
		t.Fatal("missing directory accepted")
	}
}
