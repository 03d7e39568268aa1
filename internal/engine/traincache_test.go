package engine

// Engine-level test for the incremental feature-extraction cache: retrains
// racing with ingest must keep taking the O(new points) fast path (the
// engine's snapshots are consistent prefixes, so an append-only series never
// invalidates the cache), and a quiescent retrain after the dust settles
// must be purely incremental. Runs under `make engine-race`.

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/timeseries"
)

func TestRetrainUsesCacheUnderConcurrentIngest(t *testing.T) {
	e, rest, _ := trainableSeries(t, 9)

	// The initial training seeded the cache cold.
	c0 := e.Counters()
	if c0.ExtractPointsCold == 0 {
		t.Fatal("initial training extracted no cold points: cache not wired into the train path")
	}
	if c0.ExtractPointsIncremental != 0 {
		t.Fatalf("initial training counted %d incremental points", c0.ExtractPointsIncremental)
	}
	if c0.ExtractCacheBytes == 0 {
		t.Fatal("cache accounted zero bytes after the seeding extraction")
	}

	const (
		appenders = 3
		batchSize = 16
		batches   = 6 // per appender
		retrains  = 4
	)
	need := appenders * batchSize * batches
	for len(rest) < need {
		rest = append(rest, rest...)
	}
	chunks := make(chan []float64, appenders*batches)
	for i := 0; i < appenders*batches; i++ {
		chunks <- rest[i*batchSize : (i+1)*batchSize]
	}
	close(chunks)

	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range chunks {
				pts := make([]Point, len(chunk))
				for i, v := range chunk {
					pts[i] = Point{Value: v}
				}
				if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < retrains; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Train(context.Background(), "pv"); err != nil {
				t.Errorf("train: %v", err)
			}
		}()
	}
	wg.Wait()

	mid := e.Counters()
	if mid.TrainingsRun != 1+retrains {
		t.Fatalf("TrainingsRun = %d, want %d", mid.TrainingsRun, 1+retrains)
	}
	if mid.ExtractPointsIncremental == 0 {
		t.Fatal("no retrain took the incremental extraction path despite append-only ingest")
	}
	// Append-only ingest with a fixed fit window must never invalidate or
	// re-run cold columns: the cold-point counter stays at its seeded value.
	if mid.ExtractPointsCold != c0.ExtractPointsCold {
		t.Fatalf("cold points grew from %d to %d across append-only retrains",
			c0.ExtractPointsCold, mid.ExtractPointsCold)
	}
	if mid.ExtractCacheInvalidated != 0 {
		t.Fatalf("cache invalidated %d times under append-only ingest", mid.ExtractCacheInvalidated)
	}

	// A quiescent append + retrain is purely incremental, and by exactly the
	// appended tail times the configuration count.
	pts := make([]Point, 8)
	for i := range pts {
		pts[i] = Point{Value: rest[i]}
	}
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatal(err)
	}
	post := e.Counters()
	if post.ExtractPointsCold != mid.ExtractPointsCold {
		t.Fatalf("quiescent retrain ran cold columns: %d -> %d", mid.ExtractPointsCold, post.ExtractPointsCold)
	}
	grew := post.ExtractPointsIncremental - mid.ExtractPointsIncremental
	if grew <= 0 || grew%int64(len(pts)) != 0 {
		t.Fatalf("quiescent retrain extracted %d incremental points, want a positive multiple of %d", grew, len(pts))
	}
}

// TestEngineCacheDisabled: a negative ExtractCacheMB turns the cache off —
// trainings run cold and export no cache accounting.
func TestEngineCacheDisabled(t *testing.T) {
	e := New(Config{
		Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		ExtractCacheMB: -1,
	})
	t.Cleanup(e.Close)

	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 91)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
		t.Fatal(err)
	}
	boot := 8 * 168
	pts := make([]Point, boot)
	for i := range pts {
		pts[i] = Point{Value: d.Series.Values[i]}
	}
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}
	var windows []Window
	for _, w := range d.Labels.Windows() {
		if w.End <= boot {
			windows = append(windows, Window{Start: w.Start, End: w.End, Anomalous: true})
		}
	}
	if _, err := e.Label(context.Background(), "pv", windows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatal(err)
	}
	c := e.Counters()
	if c.ExtractPointsCold != 0 || c.ExtractPointsIncremental != 0 || c.ExtractCacheBytes != 0 {
		t.Fatalf("disabled cache still accounts cold=%d incremental=%d bytes=%d",
			c.ExtractPointsCold, c.ExtractPointsIncremental, c.ExtractCacheBytes)
	}
}

// anomalousWindows returns the generator's anomaly windows that end within
// the first n points, as label actions.
func anomalousWindows(labels timeseries.Labels, n int) []Window {
	var windows []Window
	for _, w := range labels.Windows() {
		if w.End <= n {
			windows = append(windows, Window{Start: w.Start, End: w.End, Anomalous: true})
		}
	}
	return windows
}

// TestRefusedFirstTrainExtractsNothing: the commonest operator mistake —
// training before labelling — must be refused before the 133-configuration
// cold extraction runs, not after: no cold points counted, no cache seeded.
// Labelling and training afterwards works as if the refusal never happened.
func TestRefusedFirstTrainExtractsNothing(t *testing.T) {
	e := newTestEngine(t)
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 91)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, d.Series.Len())
	for i, v := range d.Series.Values {
		pts[i] = Point{Value: v}
	}
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}

	if _, err := e.Train(context.Background(), "pv"); !errors.Is(err, ErrRejected) {
		t.Fatalf("train without labels: got %v, want ErrRejected", err)
	}
	if c := e.Counters(); c.ExtractPointsCold != 0 || c.ExtractCacheBytes != 0 {
		t.Fatalf("refused train extracted cold=%d points and cached %d bytes, want 0 and 0",
			c.ExtractPointsCold, c.ExtractCacheBytes)
	}

	if _, err := e.Label(context.Background(), "pv", anomalousWindows(d.Labels, d.Series.Len())); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatalf("train after labelling: %v", err)
	}
	if c := e.Counters(); c.ExtractPointsCold == 0 || c.ExtractCacheBytes == 0 {
		t.Fatalf("first accepted train seeded cold=%d points, %d cache bytes", c.ExtractPointsCold, c.ExtractCacheBytes)
	}
}
