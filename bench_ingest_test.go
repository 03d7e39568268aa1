package opprentice

// Ingest benchmarks for the segmented binary WAL, reported as the
// BENCH_ingest.json artifact:
//
//   - bulk: parallel 256-point batches across 16 series, the shape the
//     streaming /v1/ingest path produces. Reports pts/s, gated by
//     benchjson -min-ingest-pps.
//   - steady: 64 series appending one point at a time under a 2 ms
//     group-commit window — the steady-state monitoring shape, where
//     frame overhead is shared least. Reports walB/pt (on-disk segment
//     bytes per point), gated by benchjson -max-wal-bytes.
//
// Run with:
//
//	go test -bench=BenchmarkIngestWAL -benchtime 2s
import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"opprentice/internal/tsdb"
)

// walSegmentBytes sums the on-disk size of every WAL segment under dir.
func walSegmentBytes(b *testing.B, dir string) int64 {
	b.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || filepath.Ext(path) != ".seg" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return total
}

// benchWAL opens a fresh segmented store with nSeries created series and
// returns it plus the series names. KPI-like integer-ish values compress the
// way real per-minute counters do; the per-series XOR chains see them.
func benchWAL(b *testing.B, nSeries int, opts ...tsdb.Option) (*tsdb.Store, []string, string) {
	b.Helper()
	dir := b.TempDir()
	s, err := tsdb.Open(dir, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	names := make([]string, nSeries)
	for i := range names {
		names[i] = fmt.Sprintf("pv-%03d", i)
		meta := tsdb.Meta{
			Name:            names[i],
			Start:           time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC),
			IntervalSeconds: 60,
			Recall:          0.66,
			Precision:       0.66,
			Trees:           60,
		}
		if err := s.CreateSeries(meta); err != nil {
			b.Fatal(err)
		}
	}
	return s, names, dir
}

// kpiValues models a page-view style counter: a smooth daily shape plus a
// small integer wobble, so consecutive points share most of their bits.
func kpiValues(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(9000 + 40*(i%24) + (i*7)%13)
	}
	return vals
}

// BenchmarkIngestWAL measures the segmented WAL's write path directly against
// the store — no HTTP, no engine — so the artifact numbers isolate the log.
func BenchmarkIngestWAL(b *testing.B) {
	const batch = 256

	b.Run("bulk", func(b *testing.B) {
		const nSeries = 16
		s, names, _ := benchWAL(b, nSeries, tsdb.WithShards(4))
		vals := kpiValues(batch)
		var next atomic.Int64
		// Appends block on the group fsync, so extra goroutines overlap
		// commits even on one CPU — SetParallelism models concurrent
		// clients, not extra cores.
		b.SetParallelism(4)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			name := names[int(next.Add(1)-1)%nSeries]
			for pb.Next() {
				if err := s.AppendPoints(context.Background(), name, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		elapsed := b.Elapsed().Seconds()
		if elapsed > 0 {
			b.ReportMetric(float64(b.N)*batch/elapsed, "pts/s")
		}
	})

	b.Run("steady", func(b *testing.B) {
		const nSeries = 64
		s, names, dir := benchWAL(b, nSeries,
			tsdb.WithShards(4), tsdb.WithGroupCommit(2*time.Millisecond))
		vals := kpiValues(512)
		// Creates are durable before CreateSeries returns, so the segment bytes
		// on disk here are pure series-bootstrap overhead; subtracting them
		// leaves the marginal cost per appended point.
		before := walSegmentBytes(b, dir)
		var next atomic.Int64
		// Many concurrent single-point writers are the whole premise of
		// group commit; without them every point would buy its own frame.
		b.SetParallelism(16)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			name := names[int(next.Add(1)-1)%nSeries]
			i := 0
			for pb.Next() {
				if err := s.AppendPoints(context.Background(), name, vals[i:i+1]); err != nil {
					b.Fatal(err)
				}
				i = (i + 1) % len(vals)
			}
		})
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		pts := float64(b.N)
		if pts > 0 {
			b.ReportMetric(float64(walSegmentBytes(b, dir)-before)/pts, "walB/pt")
		}
	})
}
