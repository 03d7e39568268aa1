package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/faultinject"
	"opprentice/internal/kpigen"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/tsdb"
)

// openModels opens a model registry rooted in a fresh temp dir (or the given
// dir when non-empty).
func openModels(t testing.TB, dir string) *modelreg.Registry {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	r, err := modelreg.Open(modelreg.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// restoreDataSeed pins the kpigen RNG base for the trained stores these
// tests and BenchmarkRestoreWarmVsCold restart against (series i uses
// restoreDataSeed+i). Seed policy (DESIGN.md "Seeds and reproducibility"):
// fixtures behind a ratio floor use fixed, named seeds so the warm/cold
// restart ratio is comparable across runs; changing the seed means
// re-measuring restoreSpeedupFloor.
const restoreDataSeed int64 = 91

// restoreSpeedupFloor is the least cold ÷ warm restart speedup the model
// registry must buy in BenchmarkRestoreWarmVsCold: 10 % under the lowest of
// 24 runs at -benchtime 2x (3.84×; 3.8–6.6×, most 5.3–5.8×) after the split
// search made a cold train cheaper again and the warm leg did not move (cold
// ≈ 100 → ≈ 65 ms, warm 10–20 ms). It was 5.4× before, 16–18× before the
// presort. With no model dir both legs retrain and the ratio is ~1.
const restoreSpeedupFloor = 3.4

// seedTrainedStore builds a durable deployment: a tsdb store holding the
// named series (9 weeks of hourly synthetic PV data, labels, one training
// each) and a model registry holding each series' published artifact. The
// engine used for seeding is closed; the returned dirs are ready for a
// "daemon restart".
func seedTrainedStore(t testing.TB, names ...string) (dataDir, modelDir string) {
	t.Helper()
	dataDir, modelDir = t.TempDir(), t.TempDir()
	store, err := tsdb.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{
		Log:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store:  store,
		Models: openModels(t, modelDir),
	})
	for i, name := range names {
		p := kpigen.PV(kpigen.Small)
		p.Interval = time.Hour
		p.Weeks = 9
		d := kpigen.Generate(p, restoreDataSeed+int64(i))
		ppw, err := d.Series.PointsPerWeek()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
			t.Fatal(err)
		}
		boot := 8 * ppw
		pts := make([]Point, boot)
		for j := range pts {
			pts[j] = Point{Value: d.Series.Values[j]}
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
	e.Close() // flushes any unpublished trained state via PublishModels
	store.Close()
	return dataDir, modelDir
}

// restartEngine opens a fresh engine over an existing deployment, as the
// daemon would after a restart. modelDir may be empty (no registry).
func restartEngine(t testing.TB, dataDir, modelDir string, cfg Config) (*Engine, *tsdb.Store) {
	t.Helper()
	store, err := tsdb.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.Store = store
	if modelDir != "" {
		cfg.Models = openModels(t, modelDir)
	}
	e := New(cfg)
	t.Cleanup(func() { e.Close(); store.Close() })
	return e, store
}

// TestRestoreWarmNoRetrain is the headline acceptance test: restarting
// against a trained multi-series store resumes detection from published
// artifacts with zero training rounds, and the restored monitors serve
// verdicts immediately.
func TestRestoreWarmNoRetrain(t *testing.T) {
	dataDir, modelDir := seedTrainedStore(t, "pv-a", "pv-b", "pv-c")

	e, _ := restartEngine(t, dataDir, modelDir, Config{})
	restored, err := e.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 {
		t.Fatalf("restored %d series, want 3", restored)
	}
	c := e.Counters()
	if c.TrainingsRun != 0 {
		t.Errorf("warm restore ran %d trainings, want 0", c.TrainingsRun)
	}
	if c.ModelRestoreWarm != 3 || c.ModelRestoreCold != 0 {
		t.Errorf("restore modes warm=%d cold=%d, want 3/0", c.ModelRestoreWarm, c.ModelRestoreCold)
	}
	if c.RestoreMillis < 0 {
		t.Errorf("RestoreMillis = %v, want >= 0", c.RestoreMillis)
	}
	for _, name := range []string{"pv-a", "pv-b", "pv-c"} {
		st, err := e.Status(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Trained {
			t.Fatalf("%s restored untrained", name)
		}
		res, err := e.Append(context.Background(), name, []Point{{Value: 1}, {Value: 2}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Verdicts) != 2 {
			t.Fatalf("%s: %d verdicts after warm restore, want 2", name, len(res.Verdicts))
		}
	}
}

// TestRestoreWarmMatchesColdVerdicts cross-checks the two restore modes: a
// warm-restored monitor must agree with the monitor that was live before the
// restart. The engine publishes the exact forest and threshold it serves, so
// the published CThld must match the restored Status.
func TestRestoreWarmMatchesColdVerdicts(t *testing.T) {
	dataDir, modelDir := seedTrainedStore(t, "pv")
	models := openModels(t, modelDir)
	man, err := models.Manifest("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Generations) != 1 {
		t.Fatalf("seed published %d generations, want 1", len(man.Generations))
	}
	want := man.Generations[0].CThld

	e, _ := restartEngine(t, dataDir, modelDir, Config{})
	if _, err := e.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if st.CThld != want {
		t.Errorf("restored cThld = %v, published %v", st.CThld, want)
	}
}

// TestRestoreCorruptArtifactFallsBackCold: a flipped bit in one series'
// artifact must cost only that series its warm start — it cold-retrains,
// its neighbors restore warm, and the damaged artifact is quarantined with a
// checksum-failure count.
func TestRestoreCorruptArtifactFallsBackCold(t *testing.T) {
	dataDir, modelDir := seedTrainedStore(t, "pv-a", "pv-b")
	if err := faultinject.FlipByte(filepath.Join(modelDir, "pv-a", "000000000001.model"), -2); err != nil {
		t.Fatal(err)
	}

	e, _ := restartEngine(t, dataDir, modelDir, Config{})
	restored, err := e.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d series, want 2", restored)
	}
	c := e.Counters()
	if c.ModelRestoreWarm != 1 || c.ModelRestoreCold != 1 {
		t.Errorf("restore modes warm=%d cold=%d, want 1/1", c.ModelRestoreWarm, c.ModelRestoreCold)
	}
	if c.TrainingsRun != 1 {
		t.Errorf("trainings = %d, want exactly 1 (the corrupt series)", c.TrainingsRun)
	}
	if c.ModelChecksumFailures == 0 {
		t.Error("corrupt artifact not counted as a checksum failure")
	}
	// Both series serve verdicts regardless of which rung restored them.
	for _, name := range []string{"pv-a", "pv-b"} {
		res, err := e.Append(context.Background(), name, []Point{{Value: 1}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Verdicts) != 1 {
			t.Fatalf("%s: no verdict after restore", name)
		}
	}
}

// TestRestoreFormerCodecRetrainsColdOnce is the upgrade across the
// fixed-width model codec: a generation whose verdict artifact holds real
// bytes of the former gob format (core's testdata/verdict-v2.snapshot) fails
// the version check, is set aside as *.corrupt, and its series retrains cold
// from the WAL, once: the next restart restores it warm from the generation
// that retrain published.
func TestRestoreFormerCodecRetrainsColdOnce(t *testing.T) {
	dataDir, modelDir := seedTrainedStore(t, "pv")
	old, err := os.ReadFile(filepath.Join("..", "core", "testdata", "verdict-v2.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := openModels(t, modelDir).PublishSet("pv", modelreg.Info{Points: 1, TrainedAt: testStart}, map[string][]byte{modelreg.KindVerdict: old})
	if err != nil {
		t.Fatal(err)
	}

	e, store := restartEngine(t, dataDir, modelDir, Config{})
	if _, err := e.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.ModelRestoreWarm != 0 || c.ModelRestoreCold != 1 || c.TrainingsRun != 1 {
		t.Errorf("former-codec restore: warm=%d cold=%d trainings=%d, want 0/1/1", c.ModelRestoreWarm, c.ModelRestoreCold, c.TrainingsRun)
	}
	if _, err := os.Stat(filepath.Join(modelDir, "pv", g.File+".corrupt")); err != nil {
		t.Errorf("former-codec artifact not set aside: %v", err)
	}
	e.Close()
	store.Close()

	e, _ = restartEngine(t, dataDir, modelDir, Config{})
	if _, err := e.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.ModelRestoreWarm != 1 || c.ModelRestoreCold != 0 || c.TrainingsRun != 0 {
		t.Errorf("restart after the upgrade: warm=%d cold=%d trainings=%d, want 1/0/0", c.ModelRestoreWarm, c.ModelRestoreCold, c.TrainingsRun)
	}
}

// TestRestoreFingerprintMismatchFallsBackCold: an artifact trained under a
// different detector registry must not load (it would silently misclassify:
// the forest's feature indices no longer line up) — the series cold-retrains
// under the new registry, and the artifact is NOT quarantined, because the
// operator may yet revert the deployment change.
func TestRestoreFingerprintMismatchFallsBackCold(t *testing.T) {
	dataDir, modelDir := seedTrainedStore(t, "pv")

	subset := func(iv time.Duration) ([]detectors.Detector, error) {
		ds, err := detectors.Registry(iv)
		if err != nil {
			return nil, err
		}
		return ds[:len(ds)-1], nil
	}
	e, _ := restartEngine(t, dataDir, modelDir, Config{Registry: subset})
	if _, err := e.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := e.Counters()
	if c.ModelRestoreWarm != 0 || c.ModelRestoreCold != 1 {
		t.Errorf("restore modes warm=%d cold=%d, want 0/1", c.ModelRestoreWarm, c.ModelRestoreCold)
	}
	// The mismatched artifact is still loadable for a reverted deployment.
	models := openModels(t, modelDir)
	if _, err := models.LoadSet("pv"); err != nil {
		t.Errorf("fingerprint-mismatched artifact was damaged or quarantined: %v", err)
	}
}

// TestRestoreWarmConcurrentIngest runs the parallel warm-restore pass while
// clients are already appending (a rolling restart under traffic): every
// pre-restart point must survive, and every point appended concurrently with
// the restore must receive exactly one verdict. Run under -race (make
// engine-race) to check the restore workers' locking against ingest.
func TestRestoreWarmConcurrentIngest(t *testing.T) {
	names := []string{"pv-a", "pv-b", "pv-c", "pv-d"}
	dataDir, modelDir := seedTrainedStore(t, names...)

	// Note the pre-restart state so survival is checkable after.
	preStore, err := tsdb.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	prePoints := make(map[string]int, len(names))
	for _, name := range names {
		loaded, err := preStore.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		prePoints[name] = len(loaded.Values)
	}
	preStore.Close()

	e, _ := restartEngine(t, dataDir, modelDir, Config{})

	const perSeries = 40
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		verdicts = make(map[string]int, len(names))
	)
	start := make(chan struct{})
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			<-start
			sent := 0
			for sent < perSeries {
				res, err := e.Append(context.Background(), name, []Point{{Value: float64(sent)}}, nil)
				if errors.Is(err, ErrNotFound) {
					continue // series not yet through the restore pass
				}
				if err != nil {
					t.Errorf("%s: append during restore: %v", name, err)
					return
				}
				sent += res.Appended
				mu.Lock()
				verdicts[name] += len(res.Verdicts)
				mu.Unlock()
			}
		}(name)
	}

	close(start)
	restored, err := e.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if restored != len(names) {
		t.Fatalf("restored %d series, want %d", restored, len(names))
	}
	c := e.Counters()
	if c.TrainingsRun != 0 {
		t.Errorf("warm restore under ingest ran %d trainings, want 0", c.TrainingsRun)
	}
	if int(c.ModelRestoreWarm) != len(names) {
		t.Errorf("warm restores = %d, want %d", c.ModelRestoreWarm, len(names))
	}
	for _, name := range names {
		st, err := e.Status(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if want := prePoints[name] + perSeries; st.Points != want {
			t.Errorf("%s: %d points after restart, want %d (pre-restart %d + %d appended)",
				name, st.Points, want, prePoints[name], perSeries)
		}
		if verdicts[name] != perSeries {
			t.Errorf("%s: %d verdicts for %d concurrently appended points", name, verdicts[name], perSeries)
		}
	}
}

// TestPublishAsyncAfterTrain: a training round publishes its model to the
// registry off the training path; PublishModels flushes deterministically.
func TestPublishAsyncAfterTrain(t *testing.T) {
	// A publication's completion edge comes from the PublishDone hook instead
	// of polling the manifest.
	published := make(chan uint64, 1)
	e, _, _ := trainableSeriesCfg(t, 9, Config{Hooks: Hooks{
		PublishDone: func(series string, gen uint64, err error) {
			if err != nil {
				t.Errorf("publish failed: %v", err)
			}
			select {
			case published <- gen:
			default:
			}
		},
	}})
	// Attached after the first Train, so flush publishes it now.
	models := openModels(t, "")
	e.models = models

	if n := e.PublishModels(); n != 1 {
		t.Fatalf("PublishModels flushed %d artifacts, want 1", n)
	}
	if gen := <-published; gen != 1 {
		t.Fatalf("flush published generation %d, want 1", gen)
	}
	if n := e.PublishModels(); n != 0 {
		t.Fatalf("second flush republished %d artifacts, want 0 (nothing new)", n)
	}
	man, err := models.Manifest("pv")
	if err != nil {
		t.Fatal(err)
	}
	if man.Current != 1 || len(man.Generations) != 1 {
		t.Fatalf("manifest = current %d over %d generations, want 1/1", man.Current, len(man.Generations))
	}

	// A retrain publishes a new generation asynchronously.
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatal(err)
	}
	select {
	case gen := <-published:
		if gen != 2 {
			t.Fatalf("async publish produced generation %d, want 2", gen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("async publish of generation 2 never landed")
	}
	if man, err = models.Manifest("pv"); err != nil || man.Current != 2 {
		t.Fatalf("manifest after async publish: current %d, err %v; want 2", man.Current, err)
	}
	if got := e.Counters().ModelPublishes; got != 2 {
		t.Errorf("ModelPublishes = %d, want 2", got)
	}
}

// TestRollbackModelLiveSwap: rolling back swaps the served monitor to the
// previous generation without a restart, and the rolled-back model is not
// immediately republished over.
func TestRollbackModelLiveSwap(t *testing.T) {
	e, _, _ := trainableSeries(t, 9)
	models := openModels(t, "")
	e.models = models // after the first Train: the flush below publishes it
	if n := e.PublishModels(); n != 1 {
		t.Fatalf("flush published %d, want 1", n)
	}
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatal(err)
	}
	e.PublishModels() // deterministic gen 2 (async publish may have raced it)
	man, err := models.Manifest("pv")
	if err != nil {
		t.Fatal(err)
	}
	if man.Current != 2 {
		t.Fatalf("current = %d after two trainings, want 2", man.Current)
	}
	gen1 := man.Generations[0]

	man, err = e.RollbackModel(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if man.Current != 1 {
		t.Fatalf("current = %d after rollback, want 1", man.Current)
	}
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if st.CThld != gen1.CThld {
		t.Errorf("live cThld = %v after rollback, want generation 1's %v", st.CThld, gen1.CThld)
	}
	if got := e.Counters().ModelRollbacks; got != 1 {
		t.Errorf("ModelRollbacks = %d, want 1", got)
	}
	// The sweep must not republish the rolled-back model as a new generation.
	if n := e.PublishModels(); n != 0 {
		t.Errorf("PublishModels republished %d artifacts after rollback, want 0", n)
	}
	// Rolling back past the oldest generation is rejected, not silent.
	if _, err := e.RollbackModel(context.Background(), "pv"); !errors.Is(err, ErrRejected) {
		t.Errorf("rollback past oldest: err = %v, want ErrRejected", err)
	}
	if _, err := e.RollbackModel(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("rollback of unknown series: err = %v, want ErrNotFound", err)
	}
}

// BenchmarkRestoreWarmVsCold measures daemon startup against a trained
// two-series store with and without the model registry. The cold/warm ratio
// is the restart speedup the registry buys; the benchmark fails when it
// drops below restoreSpeedupFloor. `make bench-smoke` runs it at
// -benchtime 2x.
func BenchmarkRestoreWarmVsCold(b *testing.B) {
	dataDir, modelDir := seedTrainedStore(b, "pv-a", "pv-b")

	// Sanity outside the timer: the warm path must actually be warm.
	{
		e, store := benchRestartEngine(b, dataDir, modelDir)
		if _, err := e.Restore(context.Background()); err != nil {
			b.Fatal(err)
		}
		c := e.Counters()
		e.Close()
		store.Close()
		if c.TrainingsRun != 0 || c.ModelRestoreWarm != 2 {
			b.Fatalf("warm sanity: trainings=%d warm=%d, want 0/2", c.TrainingsRun, c.ModelRestoreWarm)
		}
	}

	var coldNs, warmNs float64 // ns/op of each leg's last (longest) run
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, store := benchRestartEngine(b, dataDir, "")
			if _, err := e.Restore(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			e.Close()
			store.Close()
			b.StartTimer()
		}
		coldNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, store := benchRestartEngine(b, dataDir, modelDir)
			if _, err := e.Restore(context.Background()); err != nil {
				b.Fatal(err)
			}
			if c := e.Counters(); c.TrainingsRun != 0 {
				b.Fatalf("warm leg trained %d times", c.TrainingsRun)
			}
			b.StopTimer()
			e.Close()
			store.Close()
			b.StartTimer()
		}
		warmNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	// Both legs ran (a -bench filter naming one leg skips the check).
	if coldNs > 0 && warmNs > 0 && coldNs/warmNs < restoreSpeedupFloor {
		b.Fatalf("restore speedup %.2fx (cold %.0f ns/op ÷ warm %.0f ns/op) is below the %.1fx floor",
			coldNs/warmNs, coldNs, warmNs, restoreSpeedupFloor)
	}
}

// benchRestartEngine is restartEngine without t.Cleanup (benchmarks close
// eagerly to keep the measured section tight).
func benchRestartEngine(b *testing.B, dataDir, modelDir string) (*Engine, *tsdb.Store) {
	b.Helper()
	store, err := tsdb.Open(dataDir)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store: store,
	}
	if modelDir != "" {
		models, err := modelreg.Open(modelreg.Config{Dir: modelDir})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Models = models
	}
	return New(cfg), store
}

// cancelStore is a store whose Load cancels the restore's context as it
// loads the k-th series.
type cancelStore struct {
	Store
	k      int32
	loads  atomic.Int32
	cancel context.CancelFunc
}

func (s *cancelStore) Load(name string) (*tsdb.Loaded, error) {
	if s.loads.Add(1) == s.k {
		s.cancel()
	}
	return s.Store.Load(name)
}

// TestRestoreCancelled: cancelling Restore's context stops the pass between
// series. At GOMAXPROCS 1 the series restore in List order, so exactly the
// k claimed before the cancel are restored and registered; at GOMAXPROCS 2
// some series are still skipped. Either way Restore reports the
// cancellation, and a skipped series is not registered.
func TestRestoreCancelled(t *testing.T) {
	const series, k = 6, 2
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dataDir := t.TempDir()
			store, err := tsdb.Open(dataDir)
			if err != nil {
				t.Fatal(err)
			}
			seed := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Store: store})
			names := make([]string, series)
			for i := range names {
				names[i] = fmt.Sprintf("c%d", i)
				if err := seed.Create(names[i], SeriesConfig{IntervalSeconds: 3600, Start: testStart}); err != nil {
					t.Fatal(err)
				}
				if _, err := seed.Append(context.Background(), names[i], make([]Point, 24), nil); err != nil {
					t.Fatal(err)
				}
			}
			seed.Close()
			store.Close()

			store, err = tsdb.Open(dataDir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e := bulkEngine(t, Config{Store: &cancelStore{Store: store, k: k, cancel: cancel}})
			restored, err := e.Restore(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Restore returned %v, want context.Canceled", err)
			}
			registered := 0
			for i, name := range names {
				_, serr := e.Status(context.Background(), name)
				switch {
				case serr == nil:
					registered++
				case !errors.Is(serr, ErrNotFound):
					t.Fatal(serr)
				case procs == 1 && i < k:
					t.Fatalf("%s, claimed before the cancel, is not registered", name)
				}
			}
			if registered != restored {
				t.Fatalf("Restore reported %d series restored, %d are registered", restored, registered)
			}
			if procs == 1 && restored != k || restored >= series {
				t.Fatalf("restored %d of %d series with the cancel at the %d-th", restored, series, k)
			}
		})
	}
}
