package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/tsdb"
)

var testStart = time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(e.Close)
	return e
}

func TestCreateAndLookupErrors(t *testing.T) {
	e := newTestEngine(t)

	if err := e.Create("bad", SeriesConfig{IntervalSeconds: 7, Start: testStart}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("non-divisor interval: got %v, want ErrInvalid", err)
	}
	if err := e.Create("bad", SeriesConfig{IntervalSeconds: 60}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("zero start: got %v, want ErrInvalid", err)
	}
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}
	if _, err := e.Status(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing series: got %v, want ErrNotFound", err)
	}
	if _, err := e.Append(context.Background(), "nope", []Point{{Value: 1}}, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to missing series: got %v, want ErrNotFound", err)
	}
}

// TestPartialBatchRejectedAtomically is the regression test for the
// partial-append bug: an out-of-order timestamp in the middle of a batch must
// reject the whole batch with nothing appended — the pre-engine service
// appended the points preceding the bad one before answering 422.
func TestPartialBatchRejectedAtomically(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(context.Background(), "pv", []Point{{Value: 1}, {Value: 2}}, nil); err != nil {
		t.Fatal(err)
	}

	// Batch of three: the first timestamp is the correct next slot, the second
	// is stale. Before the fix the first point survived the rejection.
	batch := []Point{
		{Timestamp: testStart.Add(2 * time.Minute), Value: 3},
		{Timestamp: testStart, Value: 4}, // out of order
		{Value: 5},
	}
	_, err := e.Append(context.Background(), "pv", batch, nil)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("mid-batch out-of-order: got %v, want ErrRejected", err)
	}
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 2 {
		t.Fatalf("rejected batch mutated the series: %d points, want 2", st.Points)
	}

	// The same batch with the bad point fixed goes through whole.
	batch[1].Timestamp = testStart.Add(3 * time.Minute)
	if res, err := e.Append(context.Background(), "pv", batch, nil); err != nil || res.Appended != 3 || res.Total != 5 {
		t.Fatalf("repaired batch: res=%+v err=%v, want 3 appended / 5 total", res, err)
	}
}

func TestLabelWindowValidation(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, 10)
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}
	// One good window, one out of range: nothing applied.
	_, err := e.Label(context.Background(), "pv", []Window{{Start: 0, End: 4, Anomalous: true}, {Start: 8, End: 20, Anomalous: true}})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("out-of-range window: got %v, want ErrRejected", err)
	}
	st, _ := e.Status(context.Background(), "pv")
	if st.AnomalousPoints != 0 {
		t.Fatalf("rejected label batch mutated labels: %d anomalous points", st.AnomalousPoints)
	}
	res, err := e.Label(context.Background(), "pv", []Window{{Start: 0, End: 4, Anomalous: true}})
	if err != nil || res.AnomalousPoints != 4 || res.LabeledWindows != 1 {
		t.Fatalf("label: res=%+v err=%v", res, err)
	}
}

func TestAlarmRing(t *testing.T) {
	r := alarmRing{max: 4}
	at := func(i int) time.Time { return testStart.Add(time.Duration(i) * time.Minute) }
	for i := 0; i < 10; i++ {
		r.push(Alarm{Time: at(i), Value: float64(i)})
	}
	if r.len() != 4 {
		t.Fatalf("ring len = %d, want 4", r.len())
	}
	got := r.since(time.Time{})
	if len(got) != 4 {
		t.Fatalf("since(zero) returned %d alarms, want 4", len(got))
	}
	for i, a := range got {
		if want := float64(6 + i); a.Value != want {
			t.Fatalf("alarm[%d].Value = %v, want %v (oldest-first after wrap)", i, a.Value, want)
		}
	}
	if got := r.since(at(7)); len(got) != 2 || got[0].Value != 8 {
		t.Fatalf("since(t7) = %+v, want values 8,9", got)
	}
	if got := r.last(2); len(got) != 2 || got[0].Value != 8 || got[1].Value != 9 {
		t.Fatalf("last(2) = %+v, want values 8,9", got)
	}
	empty := alarmRing{}
	empty.push(Alarm{Time: at(0)}) // max==0 must not panic or grow
	if empty.len() != 0 {
		t.Fatalf("zero-max ring retained an alarm")
	}
}

// flakyStore fails points and label writes on demand; everything else
// succeeds without persisting anything.
type flakyStore struct {
	mu       sync.Mutex
	fail     bool
	appends  int
	failures int
}

func (f *flakyStore) setFail(v bool) { f.mu.Lock(); f.fail = v; f.mu.Unlock() }

func (f *flakyStore) Submit(_ context.Context, rec tsdb.Record, done func(error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if rec.Meta == nil {
		if rec.Values != nil {
			f.appends++
		}
		if f.fail {
			f.failures++
			err = fmt.Errorf("disk full")
		}
	}
	done(err)
	return nil
}

func (f *flakyStore) List() ([]string, error)           { return nil, nil }
func (f *flakyStore) Load(string) (*tsdb.Loaded, error) { return nil, fmt.Errorf("not stored") }
func (f *flakyStore) Quarantine(string) (string, error) { return "", fmt.Errorf("not stored") }

// TestWALAppendFailureSurfaced checks the durability-failure satellite: a
// failing store must not reject the append (points stay live in memory), but
// the result reports Persisted=false and the engine counts the failure.
func TestWALAppendFailureSurfaced(t *testing.T) {
	store := &flakyStore{}
	e := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Store: store})
	t.Cleanup(e.Close)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}

	res, err := e.Append(context.Background(), "pv", []Point{{Value: 1}}, nil)
	if err != nil || !res.Persisted {
		t.Fatalf("healthy store: res=%+v err=%v, want Persisted=true", res, err)
	}

	store.setFail(true)
	res, err = e.Append(context.Background(), "pv", []Point{{Value: 2}, {Value: 3}}, nil)
	if err != nil {
		t.Fatalf("append with failing store must still succeed in memory: %v", err)
	}
	if res.Persisted {
		t.Fatal("Persisted=true despite WAL failure")
	}
	if res.Total != 3 {
		t.Fatalf("points not live in memory: total=%d, want 3", res.Total)
	}
	if got := e.Counters().WALAppendErrors; got != 1 {
		t.Fatalf("WALAppendErrors = %d, want 1", got)
	}
	if _, err := e.Label(context.Background(), "pv", []Window{{Start: 0, End: 1, Anomalous: true}}); err != nil {
		t.Fatalf("label with failing store must still succeed in memory: %v", err)
	}
	if got := e.Counters().WALAppendErrors; got != 2 {
		t.Fatalf("WALAppendErrors after label = %d, want 2", got)
	}

	store.setFail(false)
	if res, _ := e.Append(context.Background(), "pv", []Point{{Value: 4}}, nil); !res.Persisted {
		t.Fatal("store recovered but Persisted still false")
	}
}

// trainableSeries creates a series, feeds it weeks of synthetic PV data with
// labels, and trains it once. It returns the engine, the remaining unfed
// values, and the index of the next point.
func trainableSeries(t *testing.T, weeks int) (*Engine, []float64, int) {
	t.Helper()
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = weeks
	d := kpigen.Generate(p, 91)
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
		t.Fatal(err)
	}
	boot := (weeks - 1) * ppw
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
	return e, d.Series.Values[boot:], boot
}

// TestConcurrentIngestRetrainNoVerdictLoss is the monitor-swap correctness
// test: while several goroutines ingest and others force retrains, every
// appended point must receive exactly one verdict — the swap protocol replays
// mid-train points into the new monitor but never re-issues their verdicts.
// Run under -race (make engine-race) to also check the locking.
func TestConcurrentIngestRetrainNoVerdictLoss(t *testing.T) {
	e, rest, base := trainableSeries(t, 9)

	const (
		appenders = 4
		batchSize = 16
		batches   = 8 // per appender
		retrains  = 6
	)
	need := appenders * batchSize * batches
	for len(rest) < need {
		rest = append(rest, rest...) // recycle the tail; values don't matter here
	}

	var (
		mu       sync.Mutex
		verdicts []Verdict
		wg       sync.WaitGroup
	)
	chunks := make(chan []float64, appenders*batches)
	for i := 0; i < appenders*batches; i++ {
		chunks <- rest[i*batchSize : (i+1)*batchSize]
	}
	close(chunks)

	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range chunks {
				pts := make([]Point, len(chunk))
				for i, v := range chunk {
					pts[i] = Point{Value: v}
				}
				res, err := e.Append(context.Background(), "pv", pts, nil)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if len(res.Verdicts) != len(pts) {
					t.Errorf("batch of %d points got %d verdicts", len(pts), len(res.Verdicts))
				}
				mu.Lock()
				verdicts = append(verdicts, res.Verdicts...)
				mu.Unlock()
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

	if len(verdicts) != need {
		t.Fatalf("got %d verdicts for %d appended points", len(verdicts), need)
	}
	idx := make([]int, len(verdicts))
	for i, v := range verdicts {
		idx[i] = v.Index
	}
	sort.Ints(idx)
	for i, got := range idx {
		if want := base + i; got != want {
			t.Fatalf("verdict index %d at position %d, want %d: a point was dropped or double-classified across a monitor swap", got, i, want)
		}
	}
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != base+need {
		t.Fatalf("series length %d, want %d", st.Points, base+need)
	}
}

// TestAutoRetrainAsync checks the scheduler end to end: crossing the
// RetrainEvery watermark arms exactly one background round, the training
// happens off the ingest path, and the swapped monitor advances TrainedAt.
func TestAutoRetrainAsync(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 91)
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}
	// The retrain completion edge comes from the TrainDone hook, not from
	// polling.
	retrained := make(chan TrainResult, 1)
	e := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Hooks: Hooks{
		TrainDone: func(name string, res TrainResult, err error) {
			if err != nil {
				t.Errorf("training failed: %v", err)
			}
			select {
			case retrained <- res:
			default:
			}
		},
	}})
	t.Cleanup(e.Close)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10, RetrainEvery: ppw}); err != nil {
		t.Fatal(err)
	}
	boot := 9 * ppw
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
	first, err := e.Train(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	<-retrained // the synchronous boot training's own edge, fired before Train returned
	week := make([]Point, ppw)
	for i := range week {
		week[i] = Point{Value: d.Series.Values[boot+i]}
	}
	if _, err := e.Append(context.Background(), "pv", week, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-retrained:
		if !res.TrainedAt.After(first.TrainedAt) {
			t.Fatalf("retrain stamped %v, not after the boot training %v", res.TrainedAt, first.TrainedAt)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("background retrain never completed")
	}
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if st.TrainedAt.Equal(first.TrainedAt) {
		t.Fatal("background retrain never swapped the monitor")
	}
	if got := e.Counters().TrainingsRun; got < 2 {
		t.Fatalf("TrainingsRun = %d, want >= 2", got)
	}
}

// TestVerdictBufferReuse checks the pooled-buffer contract: Append grows and
// reuses the caller's buffer instead of allocating.
func TestVerdictBufferReuse(t *testing.T) {
	e, rest, _ := trainableSeries(t, 9)
	buf := make([]Verdict, 0, 64)
	pts := make([]Point, 8)
	for i := range pts {
		pts[i] = Point{Value: rest[i%len(rest)]}
	}
	res, err := e.Append(context.Background(), "pv", pts, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != len(pts) {
		t.Fatalf("got %d verdicts, want %d", len(res.Verdicts), len(pts))
	}
	if &res.Verdicts[0] != &buf[:1][0] {
		t.Fatal("Append allocated a fresh slice instead of reusing the caller's buffer")
	}
}
