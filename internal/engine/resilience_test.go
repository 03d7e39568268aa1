package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opprentice/internal/alerting"
	"opprentice/internal/detectors"
	"opprentice/internal/faultinject"
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
// with a series that has no meta record in the log. Nor does it start the
// series' webhook pipeline.
func TestFailedCreateLeavesNothingRegistered(t *testing.T) {
	var notifiers atomic.Int32
	e := New(Config{
		Log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store: &failOnceStore{},
		Notifier: func(string, string) alerting.Notifier {
			notifiers.Add(1)
			return &faultinject.FlakyNotifier{}
		},
	})
	t.Cleanup(e.Close)
	cfg := SeriesConfig{IntervalSeconds: 60, Start: testStart, WebhookURL: "http://hook.invalid"}
	if err := e.Create("pv", cfg); err == nil {
		t.Fatal("Create succeeded although the meta record failed")
	}
	if _, err := e.Status(context.Background(), "pv"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status after failed Create: %v, want ErrNotFound", err)
	}
	if n := notifiers.Load(); n != 0 {
		t.Fatalf("failed Create built %d notifier pipelines, want 0", n)
	}
	if err := e.Create("pv", cfg); err != nil {
		t.Fatalf("retried Create: %v", err)
	}
	if _, err := e.Status(context.Background(), "pv"); err != nil {
		t.Fatalf("Status after retried Create: %v", err)
	}
	if n := notifiers.Load(); n != 1 {
		t.Fatalf("retried Create built %d notifier pipelines, want 1", n)
	}
}

// panickingName is a detector whose Name panics. A training round reads every
// configuration's name outside the per-configuration step sandbox, so the
// panic reaches the training watchdog.
type panickingName struct{ detectors.Detector }

func (panickingName) Name() string { panic("faultinject: Name panicked") }

// noEscape runs f and turns a panic that escapes it into a test failure
// rather than a crashed test binary.
func noEscape(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped the training watchdog: %v", r)
		}
	}()
	f()
}

// TestFaultTrainPanicRecovered: a panic inside the fit is recovered by the
// watchdog whether or not a training deadline is set. Train rejects the
// round and counts the panic, the old monitor keeps serving verdicts, and an
// automatic round that hits the same panic leaves the engine running.
func TestFaultTrainPanicRecovered(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Duration
	}{{"default deadline", 0}, {"watchdog off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			var armed atomic.Bool
			e, rest, _ := trainableSeriesCfg(t, 9, Config{
				TrainDeadline: tc.deadline,
				Registry: func(iv time.Duration) ([]detectors.Detector, error) {
					ds, err := detectors.Registry(iv)
					if err == nil && armed.Load() {
						ds = append(ds, panickingName{ds[0]})
					}
					return ds, err
				},
			})
			m, err := e.lookup("pv")
			if err != nil {
				t.Fatal(err)
			}
			m.mu.Lock()
			live := m.monitor
			m.mu.Unlock()
			armed.Store(true)

			noEscape(t, func() { _, err = e.Train(context.Background(), "pv") })
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("Train with a panicking fit: %v, want ErrRejected", err)
			}
			if got := e.Counters().WorkerPanics; got != 1 {
				t.Fatalf("WorkerPanics = %d, want 1", got)
			}
			res, err := e.Append(context.Background(), "pv", []Point{{Value: rest[0]}}, nil)
			if err != nil || len(res.Verdicts) != 1 || res.Verdicts[0].Degraded {
				t.Fatalf("append after the panicked round: %+v, %v; want one trained verdict", res, err)
			}

			noEscape(t, func() { e.autoRetrain(m) })
			if got := e.Counters().WorkerPanics; got != 2 {
				t.Fatalf("WorkerPanics after the automatic round = %d, want 2", got)
			}
			if got := m.trainFails.Load(); got != 1 {
				t.Fatalf("consecutive failures = %d, want 1", got)
			}
			m.mu.Lock()
			same := m.monitor == live
			m.mu.Unlock()
			if !same {
				t.Fatal("a panicked round swapped the monitor")
			}
		})
	}
}

// clonePanicker is a checkpointable detector whose Clone panics while armed.
// Its Name is its own, so only its column degrades.
type clonePanicker struct {
	detectors.Cloner
	armed *atomic.Bool
}

func (clonePanicker) Name() string { return "clone-panicker" }

func (d clonePanicker) Clone() detectors.Detector {
	if d.armed.Load() {
		panic("faultinject: Clone panicked")
	}
	return clonePanicker{d.Cloner.Clone().(detectors.Cloner), d.armed}
}

// TestFaultClonePanicRecovered: the feature cache checkpoints detectors with
// Clone on extraction workers, outside the training watchdog's goroutine. A
// Clone that panics — resuming a checkpoint, then extracting cold — degrades
// its column like a panicking Step: the round completes, the configuration
// is dead in the new monitor, the panic is counted as a detector panic and
// none reaches the watchdog.
func TestFaultClonePanicRecovered(t *testing.T) {
	var armed atomic.Bool
	e, rest, _ := trainableSeriesCfg(t, 9, Config{
		Registry: func(iv time.Duration) ([]detectors.Detector, error) {
			ds, err := detectors.Registry(iv)
			if err != nil {
				return nil, err
			}
			own, _ := detectors.Registry(iv) // a private instance to wrap
			return append(ds, clonePanicker{own[0].(detectors.Cloner), &armed}), nil
		},
	})
	m, err := e.lookup("pv")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().DetectorPanics; got != 0 {
		t.Fatalf("DetectorPanics before arming = %d, want 0", got)
	}
	armed.Store(true)
	// The first round resumes the checkpoint and clones it for the live set;
	// the second re-extracts the degraded column cold and checkpoints it.
	for round := 1; round <= 2; round++ {
		noEscape(t, func() { _, err = e.Train(context.Background(), "pv") })
		if err != nil {
			t.Fatalf("round %d with a panicking Clone: %v, want success", round, err)
		}
		if got := e.Counters().DetectorPanics; got != int64(round) {
			t.Fatalf("round %d: DetectorPanics = %d, want %d", round, got, round)
		}
		if got := e.Counters().WorkerPanics; got != 0 {
			t.Fatalf("round %d: WorkerPanics = %d, want 0", round, got)
		}
		m.mu.Lock()
		dead := m.monitor.DegradedDetectors()
		m.mu.Unlock()
		if dead != 1 {
			t.Fatalf("round %d: %d degraded configurations, want 1", round, dead)
		}
	}
	res, err := e.Append(context.Background(), "pv", []Point{{Value: rest[0]}}, nil)
	if err != nil || len(res.Verdicts) != 1 || res.Verdicts[0].Degraded {
		t.Fatalf("append after the rounds: %+v, %v; want one trained verdict", res, err)
	}
}

// TestFaultTrainStallReleasesCache: a round the watchdog abandons hands the
// series a fresh feature cache at once, while the abandoned fit keeps the
// old one until it returns; then the old cache is invalidated and its budget
// share given back, and the series retrains cold on the fresh cache.
func TestFaultTrainStallReleasesCache(t *testing.T) {
	gate := &faultinject.StallGate{}
	e, rest, _ := trainableSeriesCfg(t, 9, Config{
		Registry: func(iv time.Duration) ([]detectors.Detector, error) {
			ds, err := detectors.Registry(iv)
			return append(ds, &faultinject.StallingDetector{Gate: gate}), err
		},
	})
	m, err := e.lookup("pv")
	if err != nil {
		t.Fatal(err)
	}
	// Points for the next round to extract, appended while the gate is open:
	// the live monitor steps the stalling configuration too.
	pts := make([]Point, 24)
	for i := range pts {
		pts[i] = Point{Value: rest[i]}
	}
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}
	c0 := e.Counters()
	if c0.ExtractCacheBytes == 0 {
		t.Fatal("first training cached nothing")
	}
	old := m.featCache

	gate.Arm()
	t.Cleanup(gate.Release)
	e.SetTrainDeadline(50 * time.Millisecond)
	if _, err := e.Train(context.Background(), "pv"); !errors.Is(err, ErrStalled) {
		t.Fatalf("Train with a wedged fit: %v, want ErrStalled", err)
	}
	fresh := m.featCache
	if fresh == old || fresh.Bytes() != 0 {
		t.Fatal("the stalled round did not hand the series a fresh, empty cache")
	}
	if c := e.Counters(); c.ExtractCacheInvalidated != c0.ExtractCacheInvalidated {
		t.Fatal("the old cache was invalidated while the abandoned fit still extracts into it")
	}

	gate.Release()
	for wait := time.Now().Add(30 * time.Second); e.Counters().ExtractCacheInvalidated == c0.ExtractCacheInvalidated; {
		if time.Now().After(wait) {
			t.Fatal("the old cache was never invalidated after the abandoned fit returned")
		}
		time.Sleep(time.Millisecond)
	}
	c := e.Counters()
	if c.ExtractCacheInvalidated != c0.ExtractCacheInvalidated+1 {
		t.Fatalf("invalidations %d -> %d, want +1", c0.ExtractCacheInvalidated, c.ExtractCacheInvalidated)
	}
	if c.ExtractCacheBytes != fresh.Bytes() {
		t.Fatalf("cache budget holds %d bytes, the live cache %d", c.ExtractCacheBytes, fresh.Bytes())
	}
	if c.TrainStalls != 1 {
		t.Fatalf("TrainStalls = %d, want 1", c.TrainStalls)
	}

	e.SetTrainDeadline(5 * time.Minute)
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatalf("Train after the stall: %v", err)
	}
	c2 := e.Counters()
	if m.featCache != fresh || c2.ExtractPointsCold <= c.ExtractPointsCold {
		t.Fatal("the round after the stall did not extract cold into the fresh cache")
	}
	if c2.ExtractCacheBytes == 0 || c2.ExtractCacheBytes != fresh.Bytes() {
		t.Fatalf("cache budget holds %d bytes, the live cache %d", c2.ExtractCacheBytes, fresh.Bytes())
	}
}

// shardStallStore is an in-memory store of two shards, the series stalled
// names and the rest: while the gate is armed, points and labels on the
// stalled shard complete only at Release — one shard's disk stalling.
type shardStallStore struct {
	stallStore
	gate    faultinject.StallGate
	stalled func(name string) bool
}

func (s *shardStallStore) Submit(_ context.Context, rec tsdb.Record, done func(error)) error {
	if rec.Meta == nil && s.stalled(rec.Name) && s.gate.Armed() {
		go func() {
			s.gate.Wait()
			done(nil)
		}()
		return nil
	}
	done(nil)
	return nil
}

// TestFaultBulkStallDegradesOnlyStalled: one store shard stalls while flush
// groups hold every staged run until they settle. Only the stalled shard's
// series degrade, and the WAL accounting — degradations, points buffered
// and lost while degraded, append errors — equals that of the same traffic
// sent batch by batch through Append. The group naming an unknown series
// still applies exactly its prefix.
func TestFaultBulkStallDegradesOnlyStalled(t *testing.T) {
	const series = 8
	names := make([]string, series)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	stalled := func(name string) bool { return (name[1]-'0')%2 == 1 }
	frames := func(n int) []SeriesBatch {
		g := make([]SeriesBatch, series)
		for i := range g {
			g[i] = SeriesBatch{Name: names[i], Points: make([]Point, n)}
		}
		return g
	}
	// Degrade; buffer while degraded; overflow walBufferPoints and lose;
	// then a group that fails at its fourth batch.
	groups := [][]SeriesBatch{frames(100), frames(40000), frames(40000),
		append(frames(10)[:3], SeriesBatch{Name: "ghost", Points: make([]Point, 1)}, frames(10)[3])}
	run := func(bulk bool) (*Engine, Counters) {
		store := &shardStallStore{stalled: stalled}
		e := New(Config{
			Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
			Store:          store,
			WALDeadline:    20 * time.Millisecond,
			IngestInflight: -1,
		})
		t.Cleanup(e.Close)
		for _, name := range names {
			if err := e.Create(name, SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
				t.Fatal(err)
			}
		}
		store.gate.Arm()
		t.Cleanup(store.gate.Release)
		ctx := context.Background()
		for gi, g := range groups {
			last := gi == len(groups)-1
			if bulk {
				sum, _, err := e.AppendBulk(ctx, g, nil)
				switch {
				case !last && (err != nil || sum.Batches != len(g)):
					t.Fatalf("group %d: %+v, %v", gi, sum, err)
				case last && (!errors.Is(err, ErrNotFound) || sum.Batches != 3 || sum.Appended != 30):
					t.Fatalf("group naming an unknown series: %+v, %v; want its 3-batch prefix and ErrNotFound", sum, err)
				}
				continue
			}
			for _, b := range g {
				res, err := e.Append(ctx, b.Name, b.Points, nil)
				if last && b.Name == "ghost" {
					break
				}
				if err != nil || res.Persisted == stalled(b.Name) {
					t.Fatalf("group %d, %s: %+v, %v", gi, b.Name, res, err)
				}
			}
		}
		return e, e.Counters()
	}
	bulk, got := run(true)
	_, want := run(false)
	for _, name := range names {
		st, err := bulk.Status(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Degraded != stalled(name) {
			t.Fatalf("%s: degraded=%v, want %v: only the stalled shard's series may degrade", name, st.Degraded, stalled(name))
		}
		wantPts := 100 + 40000 + 40000
		if name[1]-'0' < 3 {
			wantPts += 10
		}
		if st.Points != wantPts {
			t.Fatalf("%s holds %d points, want %d", name, st.Points, wantPts)
		}
	}
	if got.DegradedEntered != want.DegradedEntered || got.WALBufferedPoints != want.WALBufferedPoints ||
		got.WALLostPoints != want.WALLostPoints || got.WALAppendErrors != want.WALAppendErrors {
		t.Fatalf("bulk accounting degraded=%d buffered=%d lost=%d errors=%d, sequential %d/%d/%d/%d",
			got.DegradedEntered, got.WALBufferedPoints, got.WALLostPoints, got.WALAppendErrors,
			want.DegradedEntered, want.WALBufferedPoints, want.WALLostPoints, want.WALAppendErrors)
	}
	if got.DegradedEntered != series/2 || got.WALLostPoints == 0 {
		t.Fatalf("degraded %d series and lost %d points: the stall did not bite", got.DegradedEntered, got.WALLostPoints)
	}
}

// TestSettleLateWaiterNotDegraded: a bulk worker may settle a run after its
// WAL deadline even though the record committed long before. A commit in
// hand wins over an expired deadline, every time.
func TestSettleLateWaiterNotDegraded(t *testing.T) {
	e := New(Config{
		Log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store:       &stallStore{}, // commits inside Submit
		WALDeadline: time.Millisecond,
	})
	t.Cleanup(e.Close)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	m, err := e.lookup("pv")
	if err != nil {
		t.Fatal(err)
	}
	for i := range 32 {
		m.mu.Lock()
		s, err := e.stage(context.Background(), m, []Point{{Value: float64(i)}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-s.wal.ctx.Done() // the waiter arrives after the deadline
		if res := e.settle(context.Background(), &s); !res.Persisted || res.Degraded {
			t.Fatalf("settle %d after the deadline of a record committed in time: %+v", i, res)
		}
	}
	if c := e.Counters(); c.DegradedEntered != 0 {
		t.Fatalf("DegradedEntered = %d, want 0", c.DegradedEntered)
	}
}

// TestAppendOverWALBufferRejected: a batch larger than one WAL record holds
// is refused up front by both append doors, even with admission lifted,
// instead of degrading its series and dropping its points from the log.
func TestAppendOverWALBufferRejected(t *testing.T) {
	e := New(Config{
		Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store:          &stallStore{},
		IngestInflight: -1,
	})
	t.Cleanup(e.Close)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, walBufferPoints+1)
	if _, err := e.Append(context.Background(), "pv", pts, nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("Append of %d points: %v, want ErrRejected", len(pts), err)
	}
	sum, _, err := e.AppendBulk(context.Background(), []SeriesBatch{{Name: "pv", Points: pts}}, nil)
	if !errors.Is(err, ErrRejected) || sum.Batches != 0 {
		t.Fatalf("AppendBulk of a %d-point batch: %+v, %v, want ErrRejected and nothing applied", len(pts), sum, err)
	}
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); st.Points != 0 || st.Degraded || c.WALLostPoints != 0 {
		t.Fatalf("series holds %d points, degraded=%v, %d points lost: want it unchanged", st.Points, st.Degraded, c.WALLostPoints)
	}
}
