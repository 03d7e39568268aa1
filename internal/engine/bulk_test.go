package engine

// AppendBulk semantics: prefix application with deferred validation errors
// (the ingest stream contract), striped all-or-nothing admission, per-series
// runs bounded by the WAL buffer, and summary accounting.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/tsdb"
)

func bulkEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestAppendBulkAppliesInOrder(t *testing.T) {
	e := newTestEngine(t)
	for _, name := range []string{"a", "b"} {
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
			t.Fatal(err)
		}
	}
	batches := []SeriesBatch{
		{Name: "a", Points: []Point{{Value: 1}, {Value: 2}}},
		{Name: "b", Points: []Point{{Value: 3}}},
		{Name: "a", Points: []Point{{Value: 4}}},
	}
	sum, _, err := e.AppendBulk(context.Background(), batches, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != 4 || sum.Batches != 3 {
		t.Fatalf("summary = %+v, want 4 points / 3 batches", sum)
	}
	st, err := e.Status(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 3 {
		t.Fatalf("series a has %d points, want 3 (duplicate-series batches must chain)", st.Points)
	}
}

func TestAppendBulkUnknownSeriesAppliesPrefix(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Create("a", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	batches := []SeriesBatch{
		{Name: "a", Points: []Point{{Value: 1}}},
		{Name: "ghost", Points: []Point{{Value: 2}}},
		{Name: "a", Points: []Point{{Value: 3}}},
	}
	sum, _, err := e.AppendBulk(context.Background(), batches, nil)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if sum.Appended != 1 || sum.Batches != 1 {
		t.Fatalf("summary = %+v, want exactly the prefix before the unknown series", sum)
	}
	st, _ := e.Status(context.Background(), "a")
	if st.Points != 1 {
		t.Fatalf("series a has %d points, want 1 (nothing after the failing batch)", st.Points)
	}
}

func TestAppendBulkShedsGroupWhole(t *testing.T) {
	e := bulkEngine(t, Config{IngestInflight: 3})
	if err := e.Create("a", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	batches := []SeriesBatch{
		{Name: "a", Points: []Point{{Value: 1}, {Value: 2}}},
		{Name: "a", Points: []Point{{Value: 3}, {Value: 4}}},
	}
	sum, _, err := e.AppendBulk(context.Background(), batches, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if sum.Appended != 0 {
		t.Fatalf("shed group committed %d points, want 0 (admission is all-or-nothing)", sum.Appended)
	}
	st, _ := e.Status(context.Background(), "a")
	if st.Points != 0 {
		t.Fatalf("series a has %d points after shed, want 0", st.Points)
	}
	// The reservation must be fully returned: a fitting group now succeeds.
	if _, _, err := e.AppendBulk(context.Background(), batches[:1], nil); err != nil {
		t.Fatalf("append after shed: %v (leaked admission budget?)", err)
	}
}

// TestAppendBulkTimestampedBatchAppliesPrefix: bulk points take the next
// slots, so a timestamp — even the right one — fails its batch up front,
// with the same prefix contract as an empty or unknown batch.
func TestAppendBulkTimestampedBatchAppliesPrefix(t *testing.T) {
	e := newTestEngine(t)
	for _, name := range []string{"a", "b"} {
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
			t.Fatal(err)
		}
	}
	batches := []SeriesBatch{
		{Name: "a", Points: []Point{{Value: 1}, {Value: 2}}},
		{Name: "b", Points: []Point{{Value: 3}}},
		{Name: "b", Points: []Point{{Value: 4}, {Timestamp: testStart.Add(2 * time.Minute), Value: 5}}}, // b's slot 2
		{Name: "a", Points: []Point{{Value: 6}}},
	}
	sum, _, err := e.AppendBulk(context.Background(), batches, nil)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
	if sum.Appended != 3 || sum.Batches != 2 {
		t.Fatalf("summary = %+v, want exactly batches 0-1", sum)
	}
	for name, want := range map[string]int{"a": 2, "b": 1} {
		if st, _ := e.Status(context.Background(), name); st.Points != want {
			t.Fatalf("series %s has %d points, want %d", name, st.Points, want)
		}
	}
}

// TestAppendBulkRunsStayUnderWALBuffer: a series' batches in one group merge
// into one WAL record, but never into one past walBufferPoints, which the
// store would refuse as saturated — the batch that would overflow the run
// starts the next round. (The default admission budget stops such a group
// per shard first; an operator may lift it.)
func TestAppendBulkRunsStayUnderWALBuffer(t *testing.T) {
	e := bulkEngine(t, Config{IngestInflight: -1})
	store := &flakyStore{}
	e.SetStore(store)
	if err := e.Create("a", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	batch := func(n int) SeriesBatch { return SeriesBatch{Name: "a", Points: make([]Point, n)} }
	for _, tc := range []struct {
		batches []SeriesBatch
		records int
	}{
		{[]SeriesBatch{batch(100), batch(200), batch(300)}, 1},
		{[]SeriesBatch{batch(walBufferPoints/2 + 1), batch(walBufferPoints/2 + 1), batch(walBufferPoints/2 + 1)}, 3},
	} {
		before := store.appends
		sum, _, err := e.AppendBulk(context.Background(), tc.batches, nil)
		if err != nil || sum.Batches != len(tc.batches) {
			t.Fatalf("summary %+v, err %v", sum, err)
		}
		if got := store.appends - before; got != tc.records {
			t.Fatalf("%d batches became %d WAL records, want %d", len(tc.batches), got, tc.records)
		}
	}
	if c := e.Counters(); c.WALLostPoints != 0 || c.DegradedEntered != 0 {
		t.Fatalf("lost %d points, degraded %d times: a run outgrew the WAL buffer", c.WALLostPoints, c.DegradedEntered)
	}
}

// bulkFleetSeries is the stream_trained workload's trained fleet.
const bulkFleetSeries = 16

// bulkFeed drives a fleet of trained series with flush groups shaped like the
// ingest handler's: frames round-robin over the series, aliasing one arena.
type bulkFeed struct {
	names   []string
	futures [][]float64
	next    []int
	turn    int
	arena   []Point
	group   []SeriesBatch
}

// newBulkFeed trains bulkFleetSeries series on e, kpigen PV, SR and SRT
// round-robin.
func newBulkFeed(t testing.TB, e *Engine) *bulkFeed {
	t.Helper()
	f := &bulkFeed{next: make([]int, bulkFleetSeries)}
	profiles := kpigen.Profiles(kpigen.Small)
	for i := range bulkFleetSeries {
		name := fmt.Sprintf("s%02d", i)
		future, _ := trainTypedSeries(t, e, name, profiles[i%len(profiles)], 9, 1, SeriesConfig{})
		f.names = append(f.names, name)
		f.futures = append(f.futures, future)
	}
	return f
}

// fill returns the next group of frames × framePts points, reusing the
// feed's arena and batch slice.
func (f *bulkFeed) fill(frames, framePts int) []SeriesBatch {
	if cap(f.arena) < frames*framePts {
		f.arena = make([]Point, frames*framePts)
	}
	f.group = f.group[:0]
	for k := range frames {
		s := f.turn % len(f.names)
		f.turn++
		fr := f.arena[k*framePts : (k+1)*framePts]
		for j := range fr {
			fr[j].Value = f.futures[s][f.next[s]%len(f.futures[s])]
			f.next[s]++
		}
		f.group = append(f.group, SeriesBatch{Name: f.names[s], Points: fr})
	}
	return f.group
}

// BenchmarkAppendBulk is the stream_trained workload's stream round in
// process: 16 trained series on a durable tsdb store, flush groups of 64
// frames of 64 points round-robin over them. ns/pt is the wall time per
// point; with the runs applied across cores it falls below one core's
// scoring cost. `make bench-smoke` runs it once.
func BenchmarkAppendBulk(b *testing.B) {
	store, err := tsdb.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Store: store})
	b.Cleanup(func() { e.Close(); store.Close() })
	feed := newBulkFeed(b, e)
	ctx := context.Background()
	const frames, framePts = 64, 64
	var vbuf []Verdict
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, buf, err := e.AppendBulk(ctx, feed.fill(frames, framePts), vbuf)
		if err != nil || sum.Appended != frames*framePts {
			b.Fatalf("group %d: %+v, %v", i, sum, err)
		}
		vbuf = buf
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames*framePts), "ns/pt")
}
