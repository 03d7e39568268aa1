package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/tsdb"
)

// TestAdmissionShedsWholeBatch pins the admission-control contract: a batch
// over the shard's in-flight budget is shed atomically with ErrOverloaded —
// no partial append, no verdicts, no series mutation — and the very next
// batch within budget goes through, because the budget counts in-flight
// points, not a rate.
func TestAdmissionShedsWholeBatch(t *testing.T) {
	e := New(Config{
		Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		IngestInflight: 8,
	})
	t.Cleanup(e.Close)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Append(context.Background(), "pv", make([]Point, 4), nil); err != nil || res.Appended != 4 {
		t.Fatalf("in-budget batch: res=%+v err=%v", res, err)
	}

	res, err := e.Append(context.Background(), "pv", make([]Point, 9), nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized batch: got %v, want ErrOverloaded", err)
	}
	if res.Appended != 0 || len(res.Verdicts) != 0 {
		t.Fatalf("shed batch leaked state: res=%+v", res)
	}
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 4 {
		t.Fatalf("shed batch mutated the series: %d points, want 4", st.Points)
	}
	if c := e.Counters(); c.IngestSheds != 1 {
		t.Fatalf("IngestSheds = %d, want 1", c.IngestSheds)
	}

	// Admission is per-call in-flight budget, not a rate limit: a full-budget
	// batch right after the shed is admitted.
	if res, err := e.Append(context.Background(), "pv", make([]Point, 8), nil); err != nil || res.Appended != 8 {
		t.Fatalf("post-shed batch: res=%+v err=%v", res, err)
	}
	if st, _ := e.Status(context.Background(), "pv"); st.Points != 12 {
		t.Fatalf("series length %d, want 12", st.Points)
	}
}

// stallStore is an in-memory engine.Store whose writes block while the gate
// is armed — a deterministic stand-in for a stalling disk.
type stallStore struct {
	mu   sync.Mutex
	gate chan struct{}
}

func (s *stallStore) arm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate == nil {
		s.gate = make(chan struct{})
	}
}

func (s *stallStore) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
	}
}

// Submit accepts every write; points and labels complete only once the gate
// opens (nothing is stored, so completion order is immaterial).
func (s *stallStore) Submit(_ context.Context, rec tsdb.Record, done func(error)) error {
	s.mu.Lock()
	g := s.gate
	s.mu.Unlock()
	if g == nil || rec.Meta != nil {
		done(nil)
		return nil
	}
	go func() {
		<-g
		done(nil)
	}()
	return nil
}
func (s *stallStore) List() ([]string, error)           { return nil, nil }
func (s *stallStore) Load(string) (*tsdb.Loaded, error) { return nil, fmt.Errorf("not stored") }
func (s *stallStore) Quarantine(string) (string, error) { return "", fmt.Errorf("not stored") }

// TestDegradedRecoveryConverges is the degraded-mode convergence test: engine
// A (two series behind one stalling store) and twin B (memory only) receive
// identical traffic and training. A's WAL deadline misses flip both series
// to threshold-only serving; after the stall clears and the hysteresis
// window passes, both must recover and serve verdicts bit-identical to B,
// which never degraded — the recovery replay leaves each monitor in exactly
// the state of an uninterrupted run.
func TestDegradedRecoveryConverges(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	names := []string{"pv", "pv2"}
	data := map[string]*kpigen.Dataset{"pv": kpigen.Generate(p, 91), "pv2": kpigen.Generate(p, 92)}
	ppw, err := data["pv"].Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}

	const (
		walDeadline = 50 * time.Millisecond
		recovery    = 100 * time.Millisecond
	)
	store := &stallStore{}
	a := New(Config{
		Log:              slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store:            store,
		WALDeadline:      walDeadline,
		DegradedRecovery: recovery,
	})
	t.Cleanup(a.Close)
	b := newTestEngine(t)

	// Identical boot: history, labels, one training round each.
	boot := 9 * ppw
	for _, e := range []*Engine{a, b} {
		for _, name := range names {
			d := data[name]
			if err := e.Create(name, SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
				t.Fatal(err)
			}
			pts := make([]Point, boot)
			for i := range pts {
				pts[i] = Point{Value: d.Series.Values[i]}
			}
			if _, err := e.Append(context.Background(), name, pts, nil); err != nil {
				t.Fatal(err)
			}
			var windows []Window
			for _, w := range d.Labels.Windows() {
				if w.End <= boot {
					windows = append(windows, Window{Start: w.Start, End: w.End, Anomalous: true})
				}
			}
			if _, err := e.Label(context.Background(), name, windows); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Train(context.Background(), name); err != nil {
				t.Fatal(err)
			}
		}
	}

	const batch = 40 // 4 batches fit the one spare week of generated data
	feed := func(e *Engine, name string, off int) AppendResult {
		t.Helper()
		rest := data[name].Series.Values[boot:]
		pts := make([]Point, batch)
		for i := range pts {
			pts[i] = Point{Value: rest[off+i]}
		}
		res, err := e.Append(context.Background(), name, pts, nil)
		if err != nil {
			t.Fatalf("%s: append at offset %d: %v", name, off, err)
		}
		return res
	}
	sameVerdicts := func(what string, got, want []Verdict) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d verdicts vs twin's %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: verdict %d diverged from the never-degraded twin: %+v vs %+v", what, i, got[i], want[i])
			}
		}
	}

	// Batch 1 rides the stall in: verdicts are computed by the full model
	// before the WAL wait, so they still match the twin, but the deadline
	// miss flips A's series degraded.
	store.arm()
	for _, name := range names {
		resA := feed(a, name, 0)
		resB := feed(b, name, 0)
		if resA.Persisted || !resA.Degraded {
			t.Fatalf("%s: stalled batch: Persisted=%v Degraded=%v, want false/true", name, resA.Persisted, resA.Degraded)
		}
		sameVerdicts(name+": degrading batch", resA.Verdicts, resB.Verdicts)
	}

	// Batch 2 is served threshold-only while degraded; the twin keeps full
	// fidelity, so the two streams intentionally diverge here.
	for _, name := range names {
		resA := feed(a, name, batch)
		feed(b, name, batch)
		if !resA.Degraded {
			t.Fatalf("%s: second batch under a stalled store was not served degraded", name)
		}
		for i, v := range resA.Verdicts {
			if !v.Degraded {
				t.Fatalf("%s: degraded-mode verdict %d not flagged Degraded: %+v", name, i, v)
			}
			if v.Probability < 0 || v.Probability > 1 {
				t.Fatalf("%s: degraded-mode verdict %d probability %v outside [0,1]", name, i, v.Probability)
			}
		}
	}
	if r := a.Ready(); r.Ready || len(r.Degraded) != 2 || r.Degraded[0] != "pv" || r.Degraded[1] != "pv2" {
		t.Fatalf("degraded series missing from readiness: %+v", r)
	}

	// Clear the stall, wait for the in-flight writes, and let the hysteresis
	// window pass.
	store.release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	for _, name := range names {
		if err := a.SyncWAL(ctx, name); err != nil {
			t.Fatalf("SyncWAL %s: %v", name, err)
		}
	}
	cancel()
	time.Sleep(recovery + 100*time.Millisecond)

	// Batch 3 triggers recovery: the buffered values replay through the real
	// monitor first, so from here on A is bit-identical to the twin again.
	for _, name := range names {
		resA := feed(a, name, 2*batch)
		resB := feed(b, name, 2*batch)
		if resA.Degraded || !resA.Persisted {
			t.Fatalf("%s: post-recovery batch: Persisted=%v Degraded=%v, want true/false", name, resA.Persisted, resA.Degraded)
		}
		sameVerdicts(name+": post-recovery batch", resA.Verdicts, resB.Verdicts)
		resA = feed(a, name, 3*batch)
		resB = feed(b, name, 3*batch)
		sameVerdicts(name+": steady-state batch", resA.Verdicts, resB.Verdicts)
	}

	c := a.Counters()
	if c.DegradedEntered != 2 || c.DegradedRecovered != 2 {
		t.Fatalf("degraded transitions: entered=%d recovered=%d, want 2/2", c.DegradedEntered, c.DegradedRecovered)
	}
	if c.WALLostPoints != 0 {
		t.Fatalf("lost %d WAL points across a bounded stall", c.WALLostPoints)
	}
	if r := a.Ready(); !r.Ready {
		t.Fatalf("recovered engine still not ready: %+v", r)
	}
}

// TestDegradedWritesBoundedAndCounted pins the memory bound of a stalled
// disk: a degraded series keeps submitting unawaited writes until it has
// walBufferPoints uncommitted points in flight; past that a batch is dropped
// from the log — counted, and never from memory.
func TestDegradedWritesBoundedAndCounted(t *testing.T) {
	store := &stallStore{}
	e := New(Config{
		Log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store:       store,
		WALDeadline: 20 * time.Millisecond,
	})
	t.Cleanup(e.Close)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	store.arm()
	t.Cleanup(store.release)
	total := 0
	for _, n := range []int{1, walBufferPoints - 1, 10} { // degrades; fills the bound; over it
		res, err := e.Append(context.Background(), "pv", make([]Point, n), nil)
		if err != nil || res.Persisted || !res.Degraded {
			t.Fatalf("batch of %d under a stalled store: res=%+v err=%v", n, res, err)
		}
		total += n
	}
	c := e.Counters()
	if c.WALBufferedPoints != walBufferPoints-1 || c.WALLostPoints != 10 {
		t.Fatalf("buffered=%d lost=%d, want %d/10", c.WALBufferedPoints, c.WALLostPoints, walBufferPoints-1)
	}
	if st, _ := e.Status(context.Background(), "pv"); st.Points != total {
		t.Fatalf("series holds %d points, want all %d: a log drop must not drop memory", st.Points, total)
	}
}

// TestWALGoroutinesIndependentOfSeriesCount pins the goroutine budget of the
// durable-write path: the store's shard appenders are the only goroutines
// between an append and its fsync, so creating and writing to hundreds of
// series starts none.
func TestWALGoroutinesIndependentOfSeriesCount(t *testing.T) {
	store, err := tsdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	e := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Store: store})
	t.Cleanup(e.Close)

	before := runtime.NumGoroutine()
	const series = 256
	for i := 0; i < series; i++ {
		name := fmt.Sprintf("kpi-%03d", i)
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
			t.Fatal(err)
		}
		res, err := e.Append(context.Background(), name, []Point{{Value: float64(i)}}, nil)
		if err != nil || !res.Persisted {
			t.Fatalf("%s: res=%+v err=%v, want a persisted append", name, res, err)
		}
	}
	if delta := runtime.NumGoroutine() - before; delta > 4 {
		t.Fatalf("%d series started %d goroutines on the durable-write path, want a small constant", series, delta)
	}
}

// failOnceStore refuses the first meta record and accepts everything after.
type failOnceStore struct {
	stallStore
	failed bool
}

func (s *failOnceStore) Submit(ctx context.Context, rec tsdb.Record, done func(error)) error {
	if rec.Meta != nil && !s.failed {
		s.failed = true
		done(fmt.Errorf("disk full"))
		return nil
	}
	return s.stallStore.Submit(ctx, rec, done)
}

// TestFailedCreateLeavesNothingRegistered is the regression test for the
// zombie-series bug: a Create whose meta record cannot be written must not
// leave the series registered, so the retry succeeds instead of colliding
// with a series that has no meta record in the log.
func TestFailedCreateLeavesNothingRegistered(t *testing.T) {
	e := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Store: &failOnceStore{}})
	t.Cleanup(e.Close)
	cfg := SeriesConfig{IntervalSeconds: 60, Start: testStart}
	if err := e.Create("pv", cfg); err == nil {
		t.Fatal("Create succeeded although the meta record failed")
	}
	if _, err := e.Status(context.Background(), "pv"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status after failed Create: %v, want ErrNotFound", err)
	}
	if err := e.Create("pv", cfg); err != nil {
		t.Fatalf("retried Create: %v", err)
	}
	if _, err := e.Status(context.Background(), "pv"); err != nil {
		t.Fatalf("Status after retried Create: %v", err)
	}
}
