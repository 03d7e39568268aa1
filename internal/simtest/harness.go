package simtest

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"time"

	"opprentice/internal/alerting"
	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/engine"
	"opprentice/internal/faultinject"
	"opprentice/internal/kpigen"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/tsdb"
)

// trainEvent / pubEvent carry engine lifecycle hooks into the harness.
type trainEvent struct {
	series string
	res    engine.TrainResult
	err    error
}

type pubEvent struct {
	series string
	gen    uint64
	err    error
}

// pubRecord is the mirror's memory of one published generation.
type pubRecord struct {
	gen       uint64
	trainedAt time.Time
	points    int
	cthld     float64
}

// seriesState is the mirror model of one simulated series: everything the
// engine should believe, derived independently from the scenario.
type seriesState struct {
	spec  SeriesSpec
	data  *kpigen.Dataset
	ppw   int
	truth []uint8 // per-point injected anomaly class (wire codes)

	total     int     // points appended so far
	labeledTo int     // labeling high-water mark (index)
	labels    []bool  // mirror of the engine's label state
	types     []uint8 // mirror of the engine's typed-label channel
	// typedSeen records that a typed window was issued: from then on the
	// engine and the WAL materialize the class channel (before it they must
	// not, so legacy byte streams stay legacy).
	typedSeen        bool
	trained          bool
	pointsAtTrain    int // mirror of the engine's retrain watermark
	pubs             []pubRecord
	anomSinceRestore int  // anomalous verdicts since the last (re)start
	corrupted        bool // WAL damaged; dies at the next restore
	dead             bool // quarantined by a restore
}

// twinState is a second engine restored from a byte-identical copy of the
// disk state, used for the restore-determinism invariant.
type twinState struct {
	eng   *engine.Engine
	store *tsdb.Store
	dir   string
	// The twin's lifecycle hooks, awaited wherever the live engine's are.
	trainCh chan trainEvent
	pubCh   chan pubEvent
}

// Harness drives one scenario against a real engine (WAL + model registry +
// alerting pipelines + async retrain/publish workers) in a temp directory and
// checks the package-level invariants after every step. The driver itself is
// single-threaded — concurrency comes from the engine's own workers, and the
// harness quiesces (awaits the TrainDone/PublishDone hooks) at every point
// where asynchrony would make the mirror ambiguous.
type Harness struct {
	scen Scenario
	long bool

	dataDir, modelDir, scratch string
	log                        *slog.Logger

	eng    *engine.Engine
	store  *tsdb.Store
	models *modelreg.Registry
	rec    *recorder

	trainCh    chan trainEvent
	pubCh      chan pubEvent
	trainStash map[string][]trainEvent
	pubStash   map[string][]pubEvent

	names  []string
	mirror map[string]*seriesState

	step               int
	crashes            int
	rollbacks          int
	trains             int
	ingestSinceRestore int

	// Resilience fault machinery (DESIGN.md §11): the WAL gate stalls the
	// store under the live engine's writers, the train gate wedges training
	// rounds via a gated detector configuration, and the exp* counters are
	// the mirror's prediction of the engine's overload/watchdog counters
	// since the last restore.
	walGate, trainGate *faultinject.StallGate
	hungStep           int    // earliest step for the hung-trainer fault (-1: none)
	hungTarget         int    // preferred series index for it
	hungNow            string // series wedged this step ("" = none)
	hungDone           bool
	stallArmed         bool
	expSheds           int64
	expDegEntered      int64
	expDegRecovered    int64
	expBuffered        int64
	expStalls          int64
	expRetries         int64
	expQuarantined     int64
	// Likewise since the last restore: publications the harness awaited, and
	// how that restore split the survivors.
	expPublishes                   int64
	expRestoreWarm, expRestoreCold int64

	twin       *twinState
	tornSeries string
	tornPubLen int
	// Torn-type bookkeeping, parallel to tornSeries: the series whose current
	// anomaly-type artifact was torn, and its publication count at the fault
	// (a later publish makes the torn generation non-current and voids the
	// expectation).
	tornTypeSeries string
	tornTypePubLen int

	trace []string

	// MutateDropVerdict, when set, is invoked on every append result before
	// invariant checking. Harness self-tests use it to emulate an engine bug
	// (losing a verdict) and assert the oracle catches it.
	MutateDropVerdict func(series string, step int, res *engine.AppendResult)
	// DisableWatchdog turns the training watchdog off through its runtime
	// hook before the gated round runs. The mutation self-test uses it to
	// prove the stall invariant bites: with no watchdog the gated round
	// never completes and the harness must report a watchdog violation.
	DisableWatchdog bool
	// MutatePartialPublish, when set, is invoked right after every awaited
	// publication with the series' artifact directory. The mutation self-test
	// uses it to emulate a non-atomic multi-kind publish (deleting one kind's
	// file behind the manifest) and assert the manifest invariant catches it.
	MutatePartialPublish func(series string, gen uint64, seriesDir string)
	// MutateExported, when set, is invoked on every step's exported samples
	// (keyed as checkExported keys them) before they are compared with the
	// mirror. The mutation self-test uses it to emulate an engine that drops
	// one counter increment and assert the metrics invariant catches it.
	MutateExported func(step int, samples map[string]float64)
	// MutateGroup, when set, is invoked on every flush group of the bulk
	// episode before the live engine takes it (the twin takes the original).
	// The mutation self-tests use it to emulate an AppendBulk that reorders
	// a run's frames or drops a run, and assert the bulk invariant catches it.
	MutateGroup func(batches []engine.SeriesBatch) []engine.SeriesBatch
}

// Result summarizes a passing run.
type Result struct {
	Steps, Trains, Crashes, Rollbacks int
	DeliveredEvents                   int
	DeliveryAttempts, DeliveryRetries int
}

// NewHarness prepares (but does not run) a scenario inside baseDir, which
// must be an empty directory the caller owns (tests pass t.TempDir()).
func NewHarness(scen Scenario, baseDir string, long bool) (*Harness, error) {
	h := &Harness{
		scen:       scen,
		long:       long,
		dataDir:    filepath.Join(baseDir, "data"),
		modelDir:   filepath.Join(baseDir, "models"),
		scratch:    filepath.Join(baseDir, "scratch"),
		log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		rec:        newRecorder(scen.Seed*7919+13, 0.25),
		trainCh:    make(chan trainEvent, 1024),
		pubCh:      make(chan pubEvent, 1024),
		trainStash: make(map[string][]trainEvent),
		pubStash:   make(map[string][]pubEvent),
		mirror:     make(map[string]*seriesState),
		walGate:    &faultinject.StallGate{},
		trainGate:  &faultinject.StallGate{},
		hungStep:   -1,
	}
	for _, f := range scen.Faults {
		if f.Kind == FaultHungTrainer {
			h.hungStep, h.hungTarget = f.Step, f.Series
		}
	}
	for _, dir := range []string{h.dataDir, h.modelDir, h.scratch} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	for _, spec := range scen.Series {
		data := kpigen.Generate(spec.Profile, spec.GenSeed)
		ppw, err := data.Series.PointsPerWeek()
		if err != nil {
			return nil, err
		}
		h.names = append(h.names, spec.Name)
		h.mirror[spec.Name] = &seriesState{spec: spec, data: data, ppw: ppw, truth: kpigen.TypedLabels(data)}
	}
	return h, nil
}

// registryFn returns the detector-set factory for the scenario: the default
// registry, one stalling configuration the hung-trainer fault wedges, and
// one deterministically panicking configuration when the scenario says so.
// The stalling detector is bound to the gate only when the set is created
// inside an armed window — which is exactly the wedged training rounds: the
// driver arms the gate before the append that schedules the round. Sets
// created while disarmed (boot, publishes, restores, the serving monitors)
// get an inert instance, so live verdict serving never blocks. Either way
// the configuration contributes the same constant feature, keeping the twin
// bit-identical. The twin shares the factory for the same reason.
func (h *Harness) registryFn() func(time.Duration) ([]detectors.Detector, error) {
	return func(interval time.Duration) ([]detectors.Detector, error) {
		ds, err := detectors.Registry(interval)
		if err != nil {
			return nil, err
		}
		var gate *faultinject.StallGate
		if h.trainGate.Armed() {
			gate = h.trainGate
		}
		ds = append(ds, &faultinject.StallingDetector{ConfigName: "sim(stall)", Gate: gate})
		if h.scen.DetectorPanics {
			ds = append(ds, &faultinject.PanickingDetector{ConfigName: "sim(panic)", PanicAfter: 3})
		}
		return ds, nil
	}
}

// engineConfig assembles the engine configuration. The live engine's hooks
// feed the harness' lifecycle channels; the twin's feed its own, with a
// throwaway recorder so it cannot pollute the live accounting.
func (h *Harness) engineConfig(store engine.Store, models *modelreg.Registry, rec *recorder, hooks engine.Hooks) engine.Config {
	cfg := engine.Config{
		Log:            h.log,
		Shards:         4,
		MaxAlarms:      1 << 14,
		Store:          store,
		Models:         models,
		Registry:       h.registryFn(),
		RetrainWorkers: 2,
		ExtractCacheMB: 64,
		// Resilience knobs sized for the simulation: a budget one oversized
		// batch can trip, a short recovery hysteresis, and a failure limit
		// of 2 so one watchdog retry reaches quarantine.
		IngestInflight:   simInflight,
		DegradedRecovery: recoveryWindow,
		TrainFailLimit:   2,
		// Drift detection is off in the classic matrix: its mirror predicts
		// retrains from the fixed watermark tick alone, and the fault
		// schedule (degraded replays, crashes) shifts vote distributions
		// enough to arm spurious early rounds. The regime-change scenarios
		// (regime.go) enable it and assert on exactly those early rounds.
		DriftThreshold: -1,
		Notify: alerting.PipelineConfig{
			QueueSize:        1024,
			MaxAttempts:      10,
			BaseDelay:        time.Millisecond,
			MaxDelay:         2 * time.Millisecond,
			Jitter:           0.1,
			AttemptTimeout:   time.Second,
			BreakerThreshold: 1 << 20, // keep the breaker out of the soak's way
			BreakerCooldown:  time.Millisecond,
			Log:              h.log,
		},
		Notifier: func(_, _ string) alerting.Notifier { return rec },
		Hooks:    hooks,
	}
	return cfg
}

// hooksTo feeds an engine's lifecycle hooks into the given channels.
func hooksTo(trainCh chan<- trainEvent, pubCh chan<- pubEvent) engine.Hooks {
	return engine.Hooks{
		TrainDone: func(series string, res engine.TrainResult, err error) {
			trainCh <- trainEvent{series: series, res: res, err: err}
		},
		PublishDone: func(series string, gen uint64, err error) {
			pubCh <- pubEvent{series: series, gen: gen, err: err}
		},
	}
}

// buildEngine (re)opens the store and registry and starts a hooked engine.
func (h *Harness) buildEngine() error {
	store, err := tsdb.Open(h.dataDir)
	if err != nil {
		return err
	}
	models, err := modelreg.Open(modelreg.Config{Dir: h.modelDir, Keep: 4})
	if err != nil {
		return err
	}
	h.store, h.models = store, models
	h.eng = engine.New(h.engineConfig(&gatedStore{Store: store, gate: h.walGate}, models, h.rec, hooksTo(h.trainCh, h.pubCh)))
	// The resilience counters die with the engine instance (checkResilience
	// ran just before the previous teardown); the mirror's predictions
	// restart with it.
	h.resetResilienceExpectations()
	return nil
}

// Run executes the scenario and returns a summary, or the first invariant
// violation as a *Violation error carrying the seed and a step trace.
func (h *Harness) Run() (Result, error) {
	if err := h.buildEngine(); err != nil {
		return Result{}, err
	}
	if err := h.boot(); err != nil {
		return Result{}, err
	}
	steps := h.scen.Steps()
	for s := 0; s < steps; s++ {
		h.step = s
		// The hung-trainer fault latches onto the first scheduled retrain at
		// or after its step: the target is resolved fresh each step so an
		// earlier fault (rollback, restore) pinning a watermark defers
		// rather than invalidates it.
		h.hungNow = ""
		if h.hungStep >= 0 && !h.hungDone && s >= h.hungStep {
			h.hungNow = h.chooseHungTarget()
		}
		for _, name := range h.names {
			st := h.mirror[name]
			if st.dead {
				continue
			}
			if err := h.stepSeries(st); err != nil {
				return Result{}, err
			}
		}
		// The twin (restored at the previous step's crash) has now seen one
		// full step of identical traffic; its job is done.
		if h.twin != nil {
			h.discardTwin()
		}
		for _, f := range h.scen.Faults {
			if f.Step != s {
				continue
			}
			if err := h.applyFault(f); err != nil {
				return Result{}, err
			}
		}
		if err := h.checkExported(); err != nil {
			return Result{}, err
		}
	}
	return h.finalize()
}

// boot creates every series, loads BootWeeks of history, labels it through
// the simulated operator, trains the first model and awaits its publication.
func (h *Harness) boot() error {
	h.step = -1
	for _, name := range h.names {
		st := h.mirror[name]
		// The sim deliberately keeps the default EWMA cThld predictor: the
		// manifest invariant pins the live threshold bitwise against the
		// published one after rollbacks and warm restores, and the EVT
		// predictor moves its threshold on every served point by design —
		// that pin would no longer hold. EVT's own behavior is locked down by
		// core's predictor tests and the engine's zero-alloc pins.
		if err := h.eng.Create(name, engine.SeriesConfig{
			IntervalSeconds: int(st.spec.Profile.Interval / time.Second),
			Start:           st.data.Series.Start,
			Trees:           10,
			WebhookURL:      "sim://" + name,
			RetrainEvery:    st.ppw,
		}); err != nil {
			return fmt.Errorf("simtest: create %s: %w", name, err)
		}
		bootN := h.scen.BootWeeks * st.ppw
		for lo := 0; lo < bootN; lo += st.ppw {
			if err := h.appendChecked(st, st.ppw); err != nil {
				return err
			}
			_ = lo
		}
		if err := h.labelRange(st, 0, bootN); err != nil {
			return err
		}
		res, err := h.eng.Train(context.Background(), name)
		if err != nil {
			return h.fail("boot_train", "series %s: boot training failed: %v", name, err)
		}
		// The synchronous Train also fired the TrainDone hook; fold it in and
		// wait for the asynchronous publication.
		ev, err := h.awaitTrain(name)
		if err != nil {
			return err
		}
		if ev.err != nil {
			return h.fail("boot_train", "series %s: TrainDone reported %v", name, ev.err)
		}
		st.trained = true
		st.pointsAtTrain = res.Points
		h.trains++
		if err := h.awaitPublishInto(st, res); err != nil {
			return err
		}
		if err := h.checkManifest(st, res.CThld, true); err != nil {
			return err
		}
		if err := h.eng.VerifyFeatureCache(name); err != nil {
			return h.fail("extract_cache", "series %s: incremental extraction diverges from cold after boot: %v", name, err)
		}
		h.tracef("boot %s: %d points, cthld=%.4f", name, res.Points, res.CThld)
	}
	return nil
}

// appendChecked appends the next n points of st's generated data and checks
// the per-append invariants (whole batch accepted, persisted, exactly one
// verdict per point with contiguous indices — or none before training).
func (h *Harness) appendChecked(st *seriesState, n int) error {
	name := st.spec.Name
	base := st.total
	if base+n > st.data.Series.Len() {
		return fmt.Errorf("simtest: scenario ran out of generated data for %s", name)
	}
	pts := make([]engine.Point, n)
	for i := range pts {
		pts[i] = engine.Point{
			Timestamp: st.data.Series.TimeAt(base + i),
			Value:     st.data.Series.Values[base+i],
		}
	}
	expectTrain := st.trained && base+n-st.pointsAtTrain >= st.ppw

	res, err := h.eng.Append(context.Background(), name, pts, nil)
	if err != nil {
		return h.fail("append", "series %s: append of %d points at %d rejected: %v", name, n, base, err)
	}
	if h.MutateDropVerdict != nil {
		h.MutateDropVerdict(name, h.step, &res)
	}
	if res.Appended != n || res.Total != base+n {
		return h.fail("append", "series %s: appended %d/%d, total %d want %d", name, res.Appended, n, res.Total, base+n)
	}
	if !res.Persisted {
		return h.fail("wal", "series %s: append at %d not persisted", name, base)
	}
	if res.Degraded {
		return h.fail("degraded", "series %s: append at %d served degraded verdicts outside a scheduled slow-disk window", name, base)
	}
	if st.trained {
		if len(res.Verdicts) != n {
			return h.fail("verdicts", "series %s: %d verdicts for %d appended points at base %d — every appended point must receive exactly one verdict across retrain/restore/rollback swaps",
				name, len(res.Verdicts), n, base)
		}
		for i, v := range res.Verdicts {
			if v.Index != base+i {
				return h.fail("verdicts", "series %s: verdict %d has index %d, want %d (contiguous from %d)", name, i, v.Index, base+i, base)
			}
			if math.IsNaN(v.Probability) || v.Probability < 0 || v.Probability > 1 {
				return h.fail("verdicts", "series %s: verdict at %d has probability %v outside [0,1]", name, v.Index, v.Probability)
			}
			// The predicted-type field is constrained, not pinned: a valid
			// class name on anomalous verdicts only (abstain and no-head are
			// empty), never on normal ones.
			if _, ok := core.ParseClass(v.Type); !ok {
				return h.fail("verdicts", "series %s: verdict at %d carries unparsable type %q", name, v.Index, v.Type)
			}
			if !v.Anomalous && v.Type != "" {
				return h.fail("verdicts", "series %s: normal verdict at %d carries type %q", name, v.Index, v.Type)
			}
			if v.Anomalous {
				st.anomSinceRestore++
			}
		}
	} else if len(res.Verdicts) != 0 {
		return h.fail("verdicts", "series %s: %d verdicts before first training", name, len(res.Verdicts))
	}

	// Restore-determinism probe: the twin must produce bitwise-identical
	// verdicts on identical traffic.
	if h.twin != nil {
		tres, terr := h.twin.eng.Append(context.Background(), name, pts, nil)
		if terr != nil {
			return h.fail("restore_determinism", "series %s: twin rejected the probe batch: %v", name, terr)
		}
		if len(tres.Verdicts) != len(res.Verdicts) {
			return h.fail("restore_determinism", "series %s: twin issued %d verdicts, live %d, for identical traffic after identical restore",
				name, len(tres.Verdicts), len(res.Verdicts))
		}
		for i := range res.Verdicts {
			a, b := res.Verdicts[i], tres.Verdicts[i]
			if a.Index != b.Index || a.Anomalous != b.Anomalous ||
				math.Float64bits(a.Probability) != math.Float64bits(b.Probability) ||
				a.Type != b.Type {
				return h.fail("restore_determinism", "series %s: verdict %d diverges between identically restored engines: live %+v vs twin %+v",
					name, i, a, b)
			}
		}
	}

	st.total += n
	h.ingestSinceRestore += n
	for i := 0; i < n; i++ {
		st.labels = append(st.labels, false)
		st.types = append(st.types, 0)
	}

	if expectTrain {
		after, stalled := h.afterWeeklyTrain, h.stallArmed
		if stalled {
			after = h.afterStalledTrain
		}
		if err := after(st); err != nil {
			return err
		}
		// The twin took the same batch and scheduled the same round: await
		// it too, or the next probe of st races the twin's model swap.
		if h.twin != nil && !stalled {
			if err := h.sameTwinRounds(st); err != nil {
				return err
			}
		}
	}
	// Weekly labeling of the just-completed week (labels always trail the
	// retrain that the week's final append triggered, like a real operator).
	if st.total%st.ppw == 0 && st.total > st.labeledTo && h.step >= 0 {
		if err := h.labelRange(st, st.labeledTo, st.total); err != nil {
			return err
		}
	}
	return nil
}

// stepSeries drives one step of one series.
func (h *Harness) stepSeries(st *seriesState) error {
	if st.spec.Name == h.hungNow {
		return h.stepHungTrainer(st)
	}
	return h.appendChecked(st, h.scen.BatchPoints)
}

// afterWeeklyTrain quiesces an automatic retrain that the last append must
// have scheduled, then checks the training-path invariants.
func (h *Harness) afterWeeklyTrain(st *seriesState) error {
	name := st.spec.Name
	ev, err := h.awaitTrain(name)
	if err != nil {
		return err
	}
	if ev.err != nil {
		return h.fail("retrain", "series %s: automatic retrain failed: %v", name, ev.err)
	}
	if ev.res.Points != st.total {
		return h.fail("retrain", "series %s: retrain saw %d points, stream head is %d (snapshot raced the single-threaded driver)",
			name, ev.res.Points, st.total)
	}
	st.pointsAtTrain = ev.res.Points
	h.trains++
	if err := h.awaitPublishInto(st, ev.res); err != nil {
		return err
	}
	if err := h.checkManifest(st, ev.res.CThld, true); err != nil {
		return err
	}
	if err := h.eng.VerifyFeatureCache(name); err != nil {
		return h.fail("extract_cache", "series %s: incremental extraction diverges from cold after retrain: %v", name, err)
	}
	h.tracef("step %d: %s retrained at %d points, cthld=%.4f", h.step, name, ev.res.Points, ev.res.CThld)
	return nil
}

// awaitPublishInto waits for the asynchronous publication of the training
// round res and records it in the mirror.
func (h *Harness) awaitPublishInto(st *seriesState, res engine.TrainResult) error {
	name := st.spec.Name
	pub, err := h.awaitPub(name)
	if err != nil {
		return err
	}
	if pub.err != nil {
		return h.fail("publish", "series %s: model publication failed: %v", name, pub.err)
	}
	st.pubs = append(st.pubs, pubRecord{gen: pub.gen, trainedAt: res.TrainedAt, points: res.Points, cthld: res.CThld})
	h.expPublishes++
	if h.MutatePartialPublish != nil {
		h.MutatePartialPublish(name, pub.gen, filepath.Join(h.modelDir, name))
	}
	return nil
}

// labelRange pushes the simulated operator's (noisy) labels for truth range
// [lo, hi) and cross-checks the engine's anomalous-point count against the
// mirror. On a typed series the operator also names each window's anomaly
// class — the dominant injected class under the (jittered) window, the way a
// real operator recognizes the shape rather than the exact boundaries; a
// noisy window overlapping no injection stays untyped.
func (h *Harness) labelRange(st *seriesState, lo, hi int) error {
	name := st.spec.Name
	noisy := st.spec.Operator.Label(st.data.Labels[lo:hi])
	var windows []engine.Window
	var classes []uint8
	for _, w := range noisy.Windows() {
		start, end := w.Start+lo, w.End+lo
		if start < 0 {
			start = 0
		}
		if end > st.total {
			end = st.total
		}
		if start >= end {
			continue
		}
		ew := engine.Window{Start: start, End: end, Anomalous: true}
		var class uint8
		if st.spec.Typed {
			class = dominantClass(st.truth, start, end)
			if class != 0 {
				ew.Type = core.AnomalyClass(class).Wire()
			}
		}
		windows = append(windows, ew)
		classes = append(classes, class)
	}
	st.labeledTo = hi
	if len(windows) == 0 {
		return nil
	}
	res, err := h.eng.Label(context.Background(), name, windows)
	if err != nil {
		return h.fail("label", "series %s: labeling [%d,%d) rejected: %v", name, lo, hi, err)
	}
	for wi, w := range windows {
		if w.Type != "" {
			st.typedSeen = true
		}
		for i := w.Start; i < w.End; i++ {
			st.labels[i] = true
			// An untyped anomalous window writes class 0, which matches the
			// engine's clear-on-plain-label rule because every labeled range
			// here is fresh (labels trail the appends, windows are disjoint).
			st.types[i] = classes[wi]
		}
	}
	if want := countTrue(st.labels); res.AnomalousPoints != want {
		return h.fail("label", "series %s: engine reports %d anomalous points, mirror %d", name, res.AnomalousPoints, want)
	}
	return nil
}

// dominantClass returns the most frequent nonzero injected class over
// truth[start:end), or 0 when the range overlaps no typed injection.
func dominantClass(truth []uint8, start, end int) uint8 {
	var counts [6]int
	for i := start; i < end && i < len(truth); i++ {
		if c := truth[i]; int(c) < len(counts) {
			counts[c]++
		}
	}
	best, n := uint8(0), 0
	for c := 1; c < len(counts); c++ {
		if counts[c] > n {
			best, n = uint8(c), counts[c]
		}
	}
	return best
}

// applyFault dispatches one scheduled fault.
func (h *Harness) applyFault(f FaultEvent) error {
	switch f.Kind {
	case FaultWALCorrupt:
		return h.faultWALCorrupt(f.Series)
	case FaultTornArtifact:
		return h.faultTornArtifact()
	case FaultTornTypeArtifact:
		return h.faultTornTypeArtifact()
	case FaultRollback:
		return h.faultRollback()
	case FaultCrashRestore:
		return h.crashRestore()
	case FaultSlowDisk:
		return h.faultSlowDisk()
	case FaultIngestFlood:
		return h.faultIngestFlood()
	case FaultBulk:
		return h.faultBulk()
	case FaultHungTrainer:
		// Applied in-step: stepSeries wedges the scheduled retrain of the
		// first qualifying series at or after the fault's step.
		return nil
	default:
		return fmt.Errorf("simtest: unknown fault %v", f.Kind)
	}
}

// faultWALCorrupt flips a byte inside the XOR bitstream of the target's
// newest points frame — mid-segment damage behind the write head. The live
// engine must keep serving; the next restore must quarantine exactly this
// series.
func (h *Harness) faultWALCorrupt(idx int) error {
	st := h.mirror[h.names[idx%len(h.names)]]
	if st.dead || st.corrupted {
		h.tracef("step %d: wal_corrupt skipped (%s already %s)", h.step, st.spec.Name, deadOrCorrupt(st))
		return nil
	}
	if err := tsdb.CorruptPointsFrame(h.dataDir, st.spec.Name); err != nil {
		return fmt.Errorf("simtest: corrupt %s: %w", st.spec.Name, err)
	}
	st.corrupted = true
	h.tracef("step %d: wal_corrupt %s (points frame bit flip)", h.step, st.spec.Name)
	// The damage must be detectable right now by an independent reader.
	probe, err := tsdb.Open(h.dataDir)
	if err != nil {
		return err
	}
	defer probe.Close()
	if _, lerr := probe.Load(st.spec.Name); lerr == nil {
		return h.fail("wal", "series %s: WAL loads cleanly after in-place corruption — checksums must catch a flipped byte", st.spec.Name)
	}
	return nil
}

// faultTornArtifact flips a byte in the current model artifact of the first
// healthy series, simulating torn storage under the registry.
func (h *Harness) faultTornArtifact() error {
	for _, name := range h.names {
		st := h.mirror[name]
		if st.dead || st.corrupted || len(st.pubs) == 0 {
			continue
		}
		man, err := h.eng.ModelManifest(name)
		if err != nil {
			return h.fail("manifest", "series %s: manifest unreadable before torn-artifact fault: %v", name, err)
		}
		var file string
		for _, g := range man.Generations {
			if g.Gen == man.Current {
				file = g.File
			}
		}
		if file == "" {
			return h.fail("manifest", "series %s: current generation %d missing from manifest", name, man.Current)
		}
		path := filepath.Join(h.modelDir, name, file)
		if err := faultinject.FlipByte(path, -3); err != nil {
			return fmt.Errorf("simtest: tear %s: %w", path, err)
		}
		h.tornSeries, h.tornPubLen = name, len(st.pubs)
		h.tracef("step %d: torn_artifact %s gen %d", h.step, name, man.Current)
		return nil
	}
	h.tracef("step %d: torn_artifact skipped (no healthy published series)", h.step)
	return nil
}

// faultTornTypeArtifact flips a byte in the current anomaly-type artifact of
// the first healthy series that has one. The next restore must quarantine
// only that kind: the generation keeps serving verdicts warm, with the type
// head gone until the next publish.
func (h *Harness) faultTornTypeArtifact() error {
	for _, name := range h.names {
		st := h.mirror[name]
		if st.dead || st.corrupted || len(st.pubs) == 0 {
			continue
		}
		man, err := h.eng.ModelManifest(name)
		if err != nil {
			return h.fail("manifest", "series %s: manifest unreadable before torn-type fault: %v", name, err)
		}
		cur := manifestCurrent(man)
		if cur == nil {
			return h.fail("manifest", "series %s: current generation %d missing from manifest", name, man.Current)
		}
		ref := cur.Ref(modelreg.KindType)
		if ref == nil {
			continue // untyped series publish verdict-only generations
		}
		path := filepath.Join(h.modelDir, name, ref.File)
		if err := faultinject.FlipByte(path, -3); err != nil {
			return fmt.Errorf("simtest: tear %s: %w", path, err)
		}
		h.tornTypeSeries, h.tornTypePubLen = name, len(st.pubs)
		h.tracef("step %d: torn_type_artifact %s gen %d", h.step, name, man.Current)
		return nil
	}
	h.tracef("step %d: torn_type_artifact skipped (no healthy series with a type artifact)", h.step)
	return nil
}

// faultRollback rolls the first eligible series back one generation.
func (h *Harness) faultRollback() error {
	for _, name := range h.names {
		if st := h.mirror[name]; !st.dead && len(st.pubs) >= 2 {
			_, err := h.rollbackSeries(st)
			return err
		}
	}
	h.tracef("step %d: rollback skipped (no series with 2 generations)", h.step)
	return nil
}

// rollbackSeries rolls st back one generation and checks the live hot-swap
// took effect (manifest and live cThld agree).
func (h *Harness) rollbackSeries(st *seriesState) (modelreg.Manifest, error) {
	name := st.spec.Name
	man, err := h.eng.RollbackModel(context.Background(), name)
	if err != nil {
		return man, h.fail("rollback", "series %s: rollback rejected with %d published generations: %v", name, len(st.pubs), err)
	}
	h.rollbacks++
	cur := manifestCurrent(man)
	if cur == nil {
		return man, h.fail("manifest", "series %s: post-rollback manifest current gen %d has no entry", name, man.Current)
	}
	status, err := h.eng.Status(context.Background(), name)
	if err != nil {
		return man, err
	}
	if math.Float64bits(status.CThld) != math.Float64bits(cur.CThld) {
		return man, h.fail("rollback", "series %s: live cthld %v but rolled-back generation %d published %v — hot-swap did not take effect",
			name, status.CThld, cur.Gen, cur.CThld)
	}
	if !status.TrainedAt.Equal(cur.TrainedAt) {
		return man, h.fail("rollback", "series %s: live model trained at %v, rolled-back generation at %v", name, status.TrainedAt, cur.TrainedAt)
	}
	// Both heads must follow the rollback: the type head serves exactly
	// when the rolled-back generation has a loadable type artifact.
	if wantTyped := typeArtifactLoadable(h.modelDir, name, cur); status.TypedModel != wantTyped {
		return man, h.fail("rollback", "series %s: live type head %v but rolled-back generation %d has type artifact %v — the hot-swap moved only one head",
			name, status.TypedModel, cur.Gen, wantTyped)
	}
	// The engine pins the retrain watermark to the stream head so the
	// rollback is not immediately republished over.
	st.pointsAtTrain = st.total
	if err := h.checkManifest(st, cur.CThld, false); err != nil {
		return man, err
	}
	h.tracef("step %d: rollback %s to gen %d", h.step, name, cur.Gen)
	return man, nil
}

// finalize runs the end-of-scenario checks and shuts everything down.
func (h *Harness) finalize() (Result, error) {
	if h.twin != nil {
		h.discardTwin()
	}
	if h.hungStep >= 0 && !h.hungDone {
		return Result{}, h.fail("watchdog", "hung-trainer fault scheduled from step %d but no qualifying scheduled retrain was found to wedge", h.hungStep)
	}
	if err := h.preCloseChecks(); err != nil {
		return Result{}, err
	}
	h.eng.Close()
	h.store.Close()
	if err := h.assertQuiescent(); err != nil {
		return Result{}, err
	}
	if err := h.checkWALs(); err != nil {
		return Result{}, err
	}
	if dups := h.rec.duplicates(); len(dups) != 0 {
		return Result{}, h.fail("alerts", "duplicate deliveries beyond the retry contract: %v", dups)
	}
	attempts, failures := h.rec.stats()
	return Result{
		Steps:            h.scen.Steps(),
		Trains:           h.trains,
		Crashes:          h.crashes,
		Rollbacks:        h.rollbacks,
		DeliveredEvents:  h.rec.delivered(),
		DeliveryAttempts: attempts,
		DeliveryRetries:  failures,
	}, nil
}

func deadOrCorrupt(st *seriesState) string {
	if st.dead {
		return "dead"
	}
	return "corrupted"
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// typeArtifactLoadable reports whether the generation names a type artifact
// whose file is still on disk (not quarantined to *.corrupt).
func typeArtifactLoadable(modelDir, series string, g *modelreg.Generation) bool {
	ref := g.Ref(modelreg.KindType)
	if ref == nil {
		return false
	}
	_, err := os.Stat(filepath.Join(modelDir, series, ref.File))
	return err == nil
}

// manifestCurrent returns the manifest entry Current points at, or nil.
func manifestCurrent(man modelreg.Manifest) *modelreg.Generation {
	for i := range man.Generations {
		if man.Generations[i].Gen == man.Current {
			return &man.Generations[i]
		}
	}
	return nil
}

// tracef appends one line to the step trace.
func (h *Harness) tracef(format string, args ...any) {
	h.trace = append(h.trace, fmt.Sprintf(format, args...))
}
