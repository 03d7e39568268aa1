package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"opprentice/internal/kpigen"
)

// heapInuse returns HeapInuse after two collections (the second sweeps what
// the first one's finalizers and pools released).
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestSeriesHeapCeiling pins what one trained, streaming series holds on the
// heap — EXPERIMENTS.md's "Memory, accounted" set-up: 16 hourly series × 9
// weeks, Trees=20, trained, 64 points streamed into each. With one severity
// matrix in the feature cache and only the flat forest kept, a series reads
// ≈ 2.3 MB; a change that re-grows a second copy of either fails here instead
// of being found by a profile. The cache's accounted bytes must be exactly one matrix
// plus the flat per-configuration state estimate.
func TestSeriesHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 16 models")
	}
	if raceEnabled {
		t.Skip("race detector shadow memory inflates HeapInuse")
	}
	const (
		series        = 16
		weeks         = 9
		streamed      = 64
		ceilingMB     = 2.7
		configs       = 133
		stateEstimate = 16 << 10 // core.stateBytesEstimate
	)
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = weeks + 1
	ctx := context.Background()

	before := heapInuse()
	e := newTestEngine(t)
	for i := 0; i < series; i++ {
		name := fmt.Sprintf("s%02d", i)
		d := kpigen.Generate(p, int64(100+i))
		ppw, err := d.Series.PointsPerWeek()
		if err != nil {
			t.Fatal(err)
		}
		trainedPoints := weeks * ppw
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 20}); err != nil {
			t.Fatal(err)
		}
		pts := make([]Point, trainedPoints+streamed)
		for j := range pts {
			pts[j] = Point{Value: d.Series.Values[j]}
		}
		if _, err := e.Append(ctx, name, pts[:trainedPoints], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Label(ctx, name, anomalousWindows(d.Labels, trainedPoints)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Train(ctx, name); err != nil {
			t.Fatal(err)
		}
		m, err := e.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.featCache.Bytes(), int64(configs*(trainedPoints*8+stateEstimate)); got != want {
			t.Fatalf("%s: feature cache accounts %d bytes, want %d: one %d×%d matrix + a %d-byte state estimate per configuration",
				name, got, want, configs, trainedPoints, stateEstimate)
		}
		if _, err := e.Append(ctx, name, pts[trainedPoints:], nil); err != nil {
			t.Fatal(err)
		}
	}
	perSeries := float64(heapInuse()-before) / series / (1 << 20)
	t.Logf("HeapInuse %.2f MB/series", perSeries)
	if perSeries > ceilingMB {
		t.Errorf("a trained series holds %.2f MB of heap, ceiling %.1f MB", perSeries, ceilingMB)
	}

}
