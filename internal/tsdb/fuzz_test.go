package tsdb

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentDecode throws arbitrary bytes at the full read path — scan,
// List, Load, Dump — as the contents of a segment file. Whatever the bytes
// (truncations, bit flips, hostile varints), the store must never panic:
// every failure is ErrCorrupt, a clean not-found, or a tolerated torn tail.
func FuzzSegmentDecode(f *testing.F) {
	// Seed with a real segment holding a few frames...
	seedDir := f.TempDir()
	s, err := Open(seedDir, WithShards(1))
	if err != nil {
		f.Fatal(err)
	}
	m := Meta{Name: "pv", IntervalSeconds: 60, Recall: 0.66, Precision: 0.66, Trees: 60}
	if err := s.CreateSeries(m); err != nil {
		f.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 0, End: 2, Anomalous: true}); err != nil {
		f.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 1, End: 2, Anomalous: true, Class: 3}); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Quarantine("pv"); err != nil {
		f.Fatal(err)
	}
	s.Close()
	seed, err := os.ReadFile(filepath.Join(seedDir, "shard-000", segFileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// ...plus degenerate shapes the mutator should riff on.
	f.Add([]byte(segMagic))
	f.Add([]byte(segMagic + "\x00"))
	f.Add([]byte{})
	f.Add(seed[:len(seed)-3])          // torn tail
	f.Add(append(seed[:0:0], seed...)) // pristine copy for bit flips

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		shardDir := filepath.Join(dir, shardDirName(0))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir, segFileName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			return // a refused open is a valid outcome; a panic is not
		}
		defer st.Close()
		names, err := st.List()
		if err != nil {
			return
		}
		for _, name := range names {
			if _, err := st.Load(name); err != nil && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, os.ErrNotExist) {
				// Whatever the damage, the error must be a classified one.
				t.Fatalf("Load(%q): unclassified error %v", name, err)
			}
		}
		if _, err := Dump(dir, discard{}, DumpOptions{}); err != nil {
			t.Fatalf("Dump must tolerate arbitrary segment bytes: %v", err)
		}
	})
}
