package simtest

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
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
	labeledTo int     // the operator's labeling high-water mark (index)
	labels    []bool  // mirror of the engine's label state
	types     []uint8 // mirror of the engine's typed-label channel
	// typedSeen records that a typed window was issued: from then on the
	// engine and the WAL materialize the class channel (before it they must
	// not, so legacy byte streams stay legacy).
	typedSeen        bool
	created, trained bool
	pointsAtTrain    int // mirror of the engine's retrain watermark
	pubs             []pubRecord
	anomSinceRestore int  // anomalous verdicts since the last (re)start
	corrupted        bool // WAL damaged; dies at the next restore
	dead             bool // quarantined by a restore
	degraded         bool // a WAL stall left it degraded until its next batch
	quarantined      bool // the watchdog quarantined its training
}

// twinState is a second engine restored from a byte-identical copy of the
// disk state, used for the restore-determinism invariant.
type twinState struct {
	eng   *engine.Engine
	store *tsdb.Store
	dir   string
	step  int // the step of the crash that restored it
	// The twin's lifecycle hooks, awaited wherever the live engine's are.
	trainCh chan trainEvent
	pubCh   chan pubEvent
}

// Harness runs one scenario against a real engine (WAL + model registry +
// alerting pipelines + async retrain/publish workers) in a temp directory:
// its generator (drive) emits ops and its interpreter (apply) runs each one
// and checks the package-level invariants after it. The driver itself is
// single-threaded — concurrency comes from the engine's own workers, and the
// harness quiesces (awaits the TrainDone/PublishDone hooks) at every point
// where asynchrony would make the mirror ambiguous.
type Harness struct {
	scen  Scenario
	long  bool
	hangs bool // the schedule holds a hung trainer

	dataDir, modelDir, scratch string
	log                        *slog.Logger

	eng   *engine.Engine
	store *tsdb.Store
	rec   *recorder

	trainCh    chan trainEvent
	pubCh      chan pubEvent
	trainStash map[string][]trainEvent
	pubStash   map[string][]pubEvent

	names  []string
	mirror map[string]*seriesState

	step               int
	ops                []op // every op applied, in order
	tally              [numOpKinds]int
	trains             int
	ingestSinceRestore int

	// Drift accounting: the engine's DriftRetrains counter as last seen, the
	// drift-armed rounds awaited, how far past its previous round the first
	// one came, and the queue depth a scheduled query answer found.
	driftSeen                 int64
	driftRounds, firstDriftAt int
	pending                   int

	// Resilience fault machinery (DESIGN.md §11): the WAL gate stalls the
	// store under the live engine's writers, the train gate wedges training
	// rounds via a gated detector configuration, and the exp* counters are
	// the mirror's prediction of the engine's counters since the last
	// restore.
	walGate, trainGate *faultinject.StallGate
	hung               string // series whose next scheduled round is wedged
	hungDone           bool
	expSheds           int64
	expDegEntered      int64
	expDegRecovered    int64
	expBuffered        int64
	expStalls          int64
	expRetries         int64
	expQuarantined     int64
	expAnswered        int64
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

	// MutateDropVerdict, when set, is invoked on every Append result before
	// invariant checking. Harness self-tests use it to emulate an engine bug
	// (losing a verdict) and assert the oracle catches it.
	MutateDropVerdict func(series string, step int, res *engine.AppendResult)
	// DisableWatchdog leaves the training watchdog at its production
	// deadline, which outlives every stall wait, instead of tightening it
	// before the gated round runs. The mutation self-test uses it to prove
	// the stall invariant bites: to the harness the gated round never
	// completes, and it must report a watchdog violation.
	DisableWatchdog bool
	// MutatePartialPublish, when set, is invoked right after every awaited
	// publication with the series' artifact directory. The mutation self-test
	// uses it to emulate a non-atomic multi-kind publish (deleting one kind's
	// file behind the manifest) and assert the manifest invariant catches it.
	MutatePartialPublish func(series string, gen uint64, seriesDir string)
	// MutateExported, when set, is invoked on every op's exported samples
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
	// DriftRetrains counts the rounds the drift detector armed ahead of the
	// watermark, FirstDriftAt how many points past the previous round the
	// first came (-1: none), and QueriesPending the queue depth a scheduled
	// query answer found.
	DriftRetrains, FirstDriftAt, QueriesPending int
	// Ops counts the ops applied, by kind.
	Ops [numOpKinds]int
}

// NewHarness prepares (but does not run) a scenario inside baseDir, which
// must be an empty directory the caller owns (tests pass t.TempDir()).
func NewHarness(scen Scenario, baseDir string, long bool) (*Harness, error) {
	h := &Harness{
		scen:         scen,
		long:         long,
		hangs:        slices.ContainsFunc(scen.Ops, func(o op) bool { return o.kind == opHung }),
		dataDir:      filepath.Join(baseDir, "data"),
		modelDir:     filepath.Join(baseDir, "models"),
		scratch:      filepath.Join(baseDir, "scratch"),
		log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		rec:          newRecorder(scen.Seed*7919+13, 0.25),
		trainCh:      make(chan trainEvent, 1024),
		pubCh:        make(chan pubEvent, 1024),
		trainStash:   make(map[string][]trainEvent),
		pubStash:     make(map[string][]pubEvent),
		mirror:       make(map[string]*seriesState),
		walGate:      &faultinject.StallGate{},
		trainGate:    &faultinject.StallGate{},
		firstDriftAt: -1,
	}
	for _, dir := range []string{h.dataDir, h.modelDir, h.scratch} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	for _, spec := range scen.Series {
		data := kpigen.Generate(spec.Profile, spec.GenSeed)
		if spec.Shift != 0 {
			for i := spec.ShiftAt; i < len(data.Series.Values); i++ {
				data.Series.Values[i] *= spec.Shift
			}
		}
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
// registry, one stalling configuration when a hung trainer is scheduled, and
// one deterministically panicking configuration when the scenario says so.
// The stalling detector is bound to the gate only when the set is created
// inside an armed window — which is exactly the wedged training rounds: the
// hung op arms the gate before the append that schedules the round. Sets
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
		if h.hangs {
			var gate *faultinject.StallGate
			if h.trainGate.Armed() {
				gate = h.trainGate
			}
			ds = append(ds, &faultinject.StallingDetector{ConfigName: "sim(stall)", Gate: gate})
		}
		if h.scen.DetectorPanics {
			ds = append(ds, &faultinject.PanickingDetector{ConfigName: "sim(panic)", PanicAfter: 3})
		}
		return ds, nil
	}
}

// engineConfig assembles the engine configuration; hooks feed the given
// lifecycle channels. Every engine delivers alerts to rec — the twin gets a
// throwaway recorder so it cannot pollute the live accounting.
func (h *Harness) engineConfig(store engine.Store, models *modelreg.Registry, rec *recorder, trainCh chan<- trainEvent, pubCh chan<- pubEvent) engine.Config {
	return engine.Config{
		Log:            h.log,
		MaxAlarms:      1 << 14,
		Store:          store,
		Models:         models,
		Registry:       h.registryFn(),
		RetrainWorkers: min(2, len(h.scen.Series)),
		ExtractCacheMB: 64,
		// Resilience knobs sized for the simulation: a budget one oversized
		// batch can trip, a short recovery hysteresis, and a failure limit
		// of 2 so one watchdog retry reaches quarantine.
		IngestInflight:   simInflight,
		DegradedRecovery: recoveryWindow,
		TrainFailLimit:   2,
		DriftThreshold:   h.scen.DriftThreshold,
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
		Hooks: engine.Hooks{
			TrainDone: func(series string, res engine.TrainResult, err error) {
				trainCh <- trainEvent{series: series, res: res, err: err}
			},
			PublishDone: func(series string, gen uint64, err error) {
				pubCh <- pubEvent{series: series, gen: gen, err: err}
			},
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
		store.Close()
		return err
	}
	h.store = store
	h.eng = engine.New(h.engineConfig(&gatedStore{Store: store, gate: h.walGate}, models, h.rec, h.trainCh, h.pubCh))
	// The counters die with the engine instance (checkResilience ran just
	// before the previous teardown); the mirror's predictions restart with
	// it.
	h.expSheds, h.expDegEntered, h.expDegRecovered, h.expBuffered = 0, 0, 0, 0
	h.expStalls, h.expRetries, h.expQuarantined, h.expAnswered = 0, 0, 0, 0
	h.expPublishes, h.expRestoreWarm, h.expRestoreCold = 0, 0, 0
	h.driftSeen = 0
	return nil
}

// closeEngine shuts the live engine and its store down.
func (h *Harness) closeEngine() {
	h.eng.Close()
	h.store.Close()
	h.eng, h.store = nil, nil
}

// Run executes the scenario and returns a summary, or the first invariant
// violation as a *Violation error carrying the seed, the op and a trace.
// Every engine the run started is closed when it returns.
func (h *Harness) Run() (Result, error) {
	defer h.shutdown()
	if err := h.buildEngine(); err != nil {
		return Result{}, err
	}
	if err := h.drive(h.apply); err != nil {
		return Result{}, err
	}
	return h.finalize()
}

// shutdown ends a run on any return path: it opens both fault gates, so no
// wedged write or round outlives it, and closes whatever engines are still
// up, so nothing writes into the base directory once Run has returned.
func (h *Harness) shutdown() {
	h.walGate.Release()
	h.trainGate.Release()
	if h.twin != nil {
		h.discardTwin()
	}
	if h.eng != nil {
		h.closeEngine()
	}
}

// drive is the scenario's op generator. Step by step it emits every live
// series' batch, then the step's scheduled ops with their targets resolved
// (the boot ops are step -1's), and it closes with the bulk episode. It
// reads the mirror, and the engine's query queue, to pick targets the way an
// operator would, and changes neither: emit applies each op before the
// generator picks the next.
func (h *Harness) drive(emit func(op) error) error {
	hungAt, hungPref := -1, ""
	for _, o := range h.scen.Ops {
		if o.kind == opHung {
			hungAt, hungPref = o.step, o.series
		}
	}
	sched := h.scen.Ops
	for s := -1; s < h.scen.Steps; s++ {
		if s >= 0 {
			// The hung trainer latches onto the first scheduled round at or
			// after its step: the target is resolved afresh each step, so an
			// earlier fault (rollback, restore) pinning a watermark defers it
			// rather than voids it.
			hung := ""
			if hungAt >= 0 && s >= hungAt && !h.hungDone {
				hung = h.chooseHungTarget(hungPref)
			}
			for _, st := range h.liveSeries() {
				if err := h.emitBatch(emit, s, st, st.spec.Name == hung); err != nil {
					return err
				}
			}
		}
		for ; len(sched) > 0 && sched[0].step == s; sched = sched[1:] {
			o, ok, err := h.resolve(sched[0])
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if err := emit(o); err != nil {
				return err
			}
			// A shed and a stall end in the target's next regular batch: it
			// must pass every check, and after a stall it recovers the series.
			if o.kind == opShed || o.kind == opStall {
				if err := h.emitBatch(emit, s, h.mirror[o.series], false); err != nil {
					return err
				}
			}
		}
	}
	if h.scen.Procs > 0 {
		return h.bulkEpisode(emit)
	}
	return nil
}

// emitBatch emits st's next batch — behind a wedged round, then the manual
// retrain that lifts the quarantine, when hung — and, when the batch
// completes a week, the operator's labels for the weeks since the last pass:
// labels trail the round the week's last batch armed, as a real operator's
// do.
func (h *Harness) emitBatch(emit func(op) error, step int, st *seriesState, hung bool) error {
	name := st.spec.Name
	batch := []op{{step: step, kind: opAppend, series: name, n: h.scen.BatchPoints}}
	if hung {
		batch = []op{{step: step, kind: opHung, series: name}, batch[0], {step: step, kind: opTrain, series: name}}
	}
	for _, o := range batch {
		if err := emit(o); err != nil {
			return err
		}
	}
	if st.total%st.ppw != 0 || st.total <= st.labeledTo {
		return nil
	}
	return emit(op{step: step, kind: opLabel, series: name, lo: st.labeledTo, hi: st.total, operator: true})
}

// resolve gives a scheduled op without a target the first live series that
// qualifies, and reports false (tracing why) when none does. A scheduled
// query answer takes the most uncertain pending query, answered from the
// ground truth. The hung trainer is left to the step's batches.
func (h *Harness) resolve(o op) (op, bool, error) {
	first := func(ok func(*seriesState) bool) bool {
		for _, st := range h.liveSeries() {
			if ok(st) {
				o.series = st.spec.Name
				return true
			}
		}
		return false
	}
	found := true
	switch o.kind {
	case opHung:
		return o, false, nil
	case opCorrupt:
		st := h.mirror[o.series]
		found = !st.dead && !st.corrupted
	case opShed:
		found = first(func(*seriesState) bool { return true })
	case opStall:
		found = first(func(st *seriesState) bool { return !st.corrupted })
	case opRollback:
		found = first(func(st *seriesState) bool { return len(st.pubs) >= 2 })
	case opTear, opTearType:
		found = first(func(st *seriesState) bool {
			if st.corrupted || len(st.pubs) == 0 {
				return false
			}
			if o.kind == opTear {
				return true
			}
			// Untyped series publish verdict-only generations. An unreadable
			// manifest is picked, for the op to report.
			man, err := h.eng.ModelManifest(st.spec.Name)
			cur := manifestCurrent(man)
			return err != nil || cur == nil || cur.Ref(modelreg.KindType) != nil
		})
	case opAnswer:
		qs, err := h.eng.Queries(context.Background(), o.series)
		if err != nil {
			return o, false, h.fail("label", "series %s: queries: %v", o.series, err)
		}
		h.pending = len(qs)
		if found = len(qs) > 0; found {
			q := qs[0]
			o.lo, o.hi = q.Start, q.End
			o.anomalous = slices.Contains(h.mirror[o.series].data.Labels[q.Start:q.End], true)
		}
	}
	if !found {
		h.tracef("step %d: %s skipped (no series qualifies)", o.step, o.kind)
	}
	return o, found, nil
}

// liveSeries returns the series still served, in scenario order.
func (h *Harness) liveSeries() []*seriesState {
	var out []*seriesState
	for _, name := range h.names {
		if st := h.mirror[name]; !st.dead {
			out = append(out, st)
		}
	}
	return out
}

// apply is the interpreter: it runs one op against the engine and the
// mirror, checking the op's own invariants as it goes, then the one that
// holds between any two ops — the metrics the daemon would export right now
// are what the mirror predicts.
func (h *Harness) apply(o op) error {
	h.step = o.step
	h.ops = append(h.ops, o)
	h.tally[o.kind]++
	// The twin restored at a crash follows the live engine through the rest
	// of that step and the next, taking every op it can take too. It goes
	// before the first op of a later step, or before a WAL stall or a wedged
	// round, which drive the live engine alone.
	if h.twin != nil && (o.step > h.twin.step+1 || o.kind == opStall || o.kind == opHung) {
		h.discardTwin()
	}
	ctx, st := context.Background(), h.mirror[o.series]
	var err error
	switch o.kind {
	case opCreate:
		err = h.create(st)
	case opAppend:
		err = h.appendChecked(st, o.n)
	case opBulk:
		err = h.bulkGroup(o)
	case opLabel:
		windows := []engine.Window{{Start: o.lo, End: o.hi, Anomalous: o.anomalous}}
		if o.operator {
			windows = operatorWindows(st, o.lo, o.hi)
			st.labeledTo = o.hi
		}
		err = h.relabel(st, windows, func(e *engine.Engine) (engine.LabelResult, error) {
			return e.Label(ctx, o.series, windows)
		})
	case opAnswer:
		err = h.relabel(st, []engine.Window{{Start: o.lo, End: o.hi, Anomalous: o.anomalous}}, func(e *engine.Engine) (engine.LabelResult, error) {
			return e.AnswerQuery(ctx, o.series, o.lo, o.hi, o.anomalous)
		})
		h.expAnswered++
	case opTrain:
		err = h.train(st)
	case opRollback:
		err = h.rollback(st)
	case opCrash:
		err = h.crashRestore()
	case opCorrupt:
		err = h.corrupt(st)
	case opTear:
		err = h.tear(st, modelreg.KindVerdict)
	case opTearType:
		err = h.tear(st, modelreg.KindType)
	case opStall:
		err = h.stall(st)
	case opHung:
		err = h.wedge(st)
	case opShed:
		err = h.shed(st, o.viaBulk)
	}
	if err != nil {
		return err
	}
	return h.checkExported()
}

// create registers st with the engine. The sim deliberately keeps the
// default EWMA cThld predictor: the manifest invariant pins the live
// threshold bitwise against the published one after rollbacks and warm
// restores, and the EVT predictor moves its threshold on every served point
// by design — that pin would no longer hold. EVT's own behavior is locked
// down by core's predictor tests and the engine's zero-alloc pins.
func (h *Harness) create(st *seriesState) error {
	name := st.spec.Name
	if err := h.eng.Create(name, engine.SeriesConfig{
		IntervalSeconds: int(st.spec.Profile.Interval / time.Second),
		Start:           st.data.Series.Start,
		Trees:           10,
		WebhookURL:      "sim://" + name,
		RetrainEvery:    st.ppw,
	}); err != nil {
		return fmt.Errorf("simtest: create %s: %w", name, err)
	}
	st.created = true
	return nil
}

// send appends st's next n generated points through Append and checks the
// whole batch landed at the stream head.
func (h *Harness) send(st *seriesState, n int) ([]engine.Point, engine.AppendResult, error) {
	name, base := st.spec.Name, st.total
	if base+n > st.data.Series.Len() {
		return nil, engine.AppendResult{}, fmt.Errorf("simtest: scenario ran out of generated data for %s", name)
	}
	pts := make([]engine.Point, n)
	for i := range pts {
		pts[i] = engine.Point{Timestamp: st.data.Series.TimeAt(base + i), Value: st.data.Series.Values[base+i]}
	}
	res, err := h.eng.Append(context.Background(), name, pts, nil)
	if err != nil {
		return nil, res, h.fail("append", "series %s: append of %d points at %d rejected: %v", name, n, base, err)
	}
	if h.MutateDropVerdict != nil {
		h.MutateDropVerdict(name, h.step, &res)
	}
	if res.Appended != n || res.Total != base+n {
		return nil, res, h.fail("append", "series %s: appended %d/%d, total %d want %d", name, res.Appended, n, res.Total, base+n)
	}
	return pts, res, nil
}

// advance moves the mirror's stream head of st on by n unlabeled points.
func (h *Harness) advance(st *seriesState, n int) {
	st.total += n
	h.ingestSinceRestore += n
	st.labels = append(st.labels, make([]bool, n)...)
	st.types = append(st.types, make([]uint8, n)...)
}

// appendChecked is the append op: st's next n points through Append, which
// must be accepted whole, persisted and served exactly one verdict per
// point (none before training), and must agree with the twin. The first
// healthy batch after a WAL stall recovers the series. Then it awaits the
// round the batch armed — the watermark predicts one, and a drift-armed one
// shows as a move of the engine's DriftRetrains counter — wedged if a hung
// op armed the gate for st.
func (h *Harness) appendChecked(st *seriesState, n int) error {
	name, base := st.spec.Name, st.total
	pts, res, err := h.send(st, n)
	if err != nil {
		return err
	}
	if !res.Persisted {
		return h.fail("wal", "series %s: append at %d not persisted", name, base)
	}
	if res.Degraded {
		return h.fail("degraded", "series %s: append at %d served degraded verdicts outside a WAL stall", name, base)
	}
	if err := h.checkVerdicts(st, base, n, res.Verdicts, false); err != nil {
		return err
	}
	// Restore-determinism probe: the twin must produce bitwise-identical
	// verdicts on identical traffic.
	if h.twin != nil {
		tres, terr := h.twin.eng.Append(context.Background(), name, pts, nil)
		if terr != nil {
			return h.fail("restore_determinism", "series %s: twin rejected the probe batch: %v", name, terr)
		}
		if !sameVerdicts(res.Verdicts, tres.Verdicts) {
			return h.fail("restore_determinism", "series %s: verdicts diverge between identically restored engines on identical traffic: live %+v vs twin %+v",
				name, res.Verdicts, tres.Verdicts)
		}
	}
	h.advance(st, n)
	if st.degraded {
		st.degraded = false
		h.expDegRecovered++
		status, serr := h.eng.Status(context.Background(), name)
		if serr != nil || status.Degraded {
			return h.fail("degraded", "series %s: still degraded (%v) after drain and recovery window", name, serr)
		}
		if c := h.eng.Counters(); c.WALLostPoints != 0 {
			return h.fail("degraded", "series %s: %d points dropped from the log with the degraded buffer never at capacity", name, c.WALLostPoints)
		}
		h.tracef("step %d: %s recovered from the WAL stall", h.step, name)
	}
	drift := false
	if c := h.eng.Counters().DriftRetrains; c > h.driftSeen {
		h.driftSeen, drift = c, true
	}
	due := st.trained && (st.total-st.pointsAtTrain >= st.ppw || drift)
	switch {
	case h.hung == name && !due:
		return h.fail("watchdog", "series %s: hung-trainer batch at step %d did not cross the retrain watermark — scenario scheduling bug", name, h.step)
	case h.hung == name:
		return h.stalledRound(st)
	case !due:
		return nil
	}
	if drift {
		h.driftRounds++
		if h.firstDriftAt < 0 {
			h.firstDriftAt = st.total - st.pointsAtTrain
		}
	}
	if err := h.awaitRound(st); err != nil {
		return err
	}
	// The twin took the same batch and armed the same round: await it too,
	// or the next probe of st races the twin's model swap.
	if h.twin != nil {
		return h.sameTwinRounds(st)
	}
	return nil
}

// operatorWindows is st's operator's noisy pass over truth range [lo, hi).
// On a typed series the operator also names each window's anomaly class —
// the dominant injected class under the (jittered) window, the way a real
// operator recognizes the shape rather than the exact boundaries; a noisy
// window overlapping no injection stays untyped.
func operatorWindows(st *seriesState, lo, hi int) []engine.Window {
	var windows []engine.Window
	for _, w := range st.spec.Operator.Label(st.data.Labels[lo:hi]).Windows() {
		start, end := max(w.Start+lo, 0), min(w.End+lo, st.total)
		if start >= end {
			continue
		}
		ew := engine.Window{Start: start, End: end, Anomalous: true}
		if st.spec.Typed {
			if class := dominantClass(st.truth, start, end); class != 0 {
				ew.Type = core.AnomalyClass(class).Wire()
			}
		}
		windows = append(windows, ew)
	}
	return windows
}

// relabel applies one label action over windows through act, on the live
// engine and on the twin, and mirrors it: a window writes its class over its
// range — an untyped one class 0, which matches the engine's clear-on-plain-
// label rule. Both engines must count the mirror's anomalous points.
func (h *Harness) relabel(st *seriesState, windows []engine.Window, act func(*engine.Engine) (engine.LabelResult, error)) error {
	if len(windows) == 0 {
		return nil
	}
	name := st.spec.Name
	res, err := act(h.eng)
	tres, terr := res, error(nil)
	if h.twin != nil {
		tres, terr = act(h.twin.eng)
	}
	if err != nil || terr != nil {
		return h.fail("label", "series %s: labeling %v rejected: live %v, twin %v", name, windows, err, terr)
	}
	for _, w := range windows {
		class, _ := core.ParseClass(w.Type)
		st.typedSeen = st.typedSeen || w.Type != ""
		for i := w.Start; i < w.End; i++ {
			st.labels[i], st.types[i] = w.Anomalous, uint8(class)
		}
	}
	if want := countTrue(st.labels); res != tres || res.AnomalousPoints != want {
		return h.fail("label", "series %s: labeling %v gave %+v, the twin %+v, mirror %d anomalous points", name, windows, res, tres, want)
	}
	h.tracef("step %d: label %s: %d windows from %d, %d anomalous points", h.step, name, len(windows), windows[0].Start, res.AnomalousPoints)
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

// train runs one manual training round on the live engine, and on the twin,
// whose round must match. A successful manual round lifts a watchdog
// quarantine.
func (h *Harness) train(st *seriesState) error {
	ctx, name := context.Background(), st.spec.Name
	res, err := h.eng.Train(ctx, name)
	if err != nil {
		return h.fail("retrain", "series %s: manual training round failed: %v", name, err)
	}
	// The synchronous Train also fired the TrainDone hook.
	ev, err := h.awaitTrain(name)
	if err != nil {
		return err
	}
	if ev.err != nil {
		return h.fail("retrain", "series %s: manual round's TrainDone reported %v", name, ev.err)
	}
	if err := h.round(st, res, "retrain"); err != nil {
		return err
	}
	if st.quarantined {
		status, serr := h.eng.Status(ctx, name)
		if serr != nil || status.Quarantined {
			return h.fail("watchdog", "series %s: still quarantined (%v) after a successful manual retrain", name, serr)
		}
		st.quarantined = false
	}
	if h.twin == nil {
		return nil
	}
	if _, err := h.twin.eng.Train(ctx, name); err != nil {
		return h.fail("bulk", "series %s: the twin's manual retrain failed: %v", name, err)
	}
	return h.sameTwinRounds(st)
}

// rollback rolls st back one generation, on the twin too, and checks the
// live hot-swap took effect (manifest and live cThld agree).
func (h *Harness) rollback(st *seriesState) error {
	ctx, name := context.Background(), st.spec.Name
	man, err := h.eng.RollbackModel(ctx, name)
	if err != nil {
		return h.fail("rollback", "series %s: rollback rejected with %d published generations: %v", name, len(st.pubs), err)
	}
	cur := manifestCurrent(man)
	if cur == nil {
		return h.fail("manifest", "series %s: post-rollback manifest current gen %d has no entry", name, man.Current)
	}
	status, err := h.eng.Status(ctx, name)
	if err != nil {
		return err
	}
	if math.Float64bits(status.CThld) != math.Float64bits(cur.CThld) {
		return h.fail("rollback", "series %s: live cthld %v but rolled-back generation %d published %v — hot-swap did not take effect",
			name, status.CThld, cur.Gen, cur.CThld)
	}
	if !status.TrainedAt.Equal(cur.TrainedAt) {
		return h.fail("rollback", "series %s: live model trained at %v, rolled-back generation at %v", name, status.TrainedAt, cur.TrainedAt)
	}
	// Both heads must follow the rollback: the type head serves exactly
	// when the rolled-back generation has a loadable type artifact.
	if wantTyped := typeArtifactLoadable(h.modelDir, name, cur); status.TypedModel != wantTyped {
		return h.fail("rollback", "series %s: live type head %v but rolled-back generation %d has type artifact %v — the hot-swap moved only one head",
			name, status.TypedModel, cur.Gen, wantTyped)
	}
	// The engine pins the retrain watermark to the stream head so the
	// rollback is not immediately republished over.
	st.pointsAtTrain = st.total
	if err := h.checkManifest(st, cur.CThld, false); err != nil {
		return err
	}
	h.tracef("step %d: rollback %s to gen %d", h.step, name, cur.Gen)
	if h.twin == nil {
		return nil
	}
	tman, terr := h.twin.eng.RollbackModel(ctx, name)
	twin, _ := h.twin.eng.Status(ctx, name)
	if terr != nil || tman.Current != man.Current || math.Float64bits(status.CThld) != math.Float64bits(twin.CThld) {
		return h.fail("bulk", "series %s: rolled back to gen %d (cthld %v), the twin to %d (cthld %v, %v)",
			name, man.Current, status.CThld, tman.Current, twin.CThld, terr)
	}
	return nil
}

// corrupt flips a byte inside the XOR bitstream of st's newest points frame
// — mid-segment damage behind the write head. The live engine must keep
// serving; the next restore must quarantine exactly this series.
func (h *Harness) corrupt(st *seriesState) error {
	name := st.spec.Name
	if err := tsdb.CorruptPointsFrame(h.dataDir, name); err != nil {
		return fmt.Errorf("simtest: corrupt %s: %w", name, err)
	}
	st.corrupted = true
	h.tracef("step %d: wal_corrupt %s (points frame bit flip)", h.step, name)
	// The damage must be detectable right now by an independent reader.
	probe, err := tsdb.Open(h.dataDir)
	if err != nil {
		return err
	}
	defer probe.Close()
	if _, lerr := probe.Load(name); lerr == nil {
		return h.fail("wal", "series %s: WAL loads cleanly after in-place corruption — checksums must catch a flipped byte", name)
	}
	return nil
}

// tear flips a byte in st's current artifact of the given kind, simulating
// torn storage under the registry. The next restore must detect it: a torn
// verdict falls the generation back (previous generation or cold retrain),
// a torn type head costs only that kind.
func (h *Harness) tear(st *seriesState, kind string) error {
	name := st.spec.Name
	man, err := h.eng.ModelManifest(name)
	if err != nil {
		return h.fail("manifest", "series %s: manifest unreadable before tearing its %s artifact: %v", name, kind, err)
	}
	var ref *modelreg.ArtifactRef
	if cur := manifestCurrent(man); cur != nil {
		ref = cur.Ref(kind)
	}
	if ref == nil {
		return h.fail("manifest", "series %s: current generation %d has no %s artifact in the manifest", name, man.Current, kind)
	}
	path := filepath.Join(h.modelDir, name, ref.File)
	if err := faultinject.FlipByte(path, -3); err != nil {
		return fmt.Errorf("simtest: tear %s: %w", path, err)
	}
	if kind == modelreg.KindVerdict {
		h.tornSeries, h.tornPubLen = name, len(st.pubs)
	} else {
		h.tornTypeSeries, h.tornTypePubLen = name, len(st.pubs)
	}
	h.tracef("step %d: tore the %s artifact of %s gen %d", h.step, kind, name, man.Current)
	return nil
}

// finalize runs the end-of-scenario checks and shuts everything down.
func (h *Harness) finalize() (Result, error) {
	if h.twin != nil {
		h.discardTwin()
	}
	if h.hangs && !h.hungDone {
		return Result{}, h.fail("watchdog", "hung-trainer fault scheduled but no qualifying scheduled retrain was found to wedge")
	}
	if err := h.preCloseChecks(); err != nil {
		return Result{}, err
	}
	h.closeEngine()
	if err := h.assertQuiescent(); err != nil {
		return Result{}, err
	}
	if err := h.checkWALs(h.dataDir); err != nil {
		return Result{}, err
	}
	if dups := h.rec.duplicates(); len(dups) != 0 {
		return Result{}, h.fail("alerts", "duplicate deliveries beyond the retry contract: %v", dups)
	}
	attempts, failures := h.rec.stats()
	return Result{
		Steps:            h.scen.Steps,
		Trains:           h.trains,
		Crashes:          h.tally[opCrash],
		Rollbacks:        h.tally[opRollback],
		DeliveredEvents:  h.rec.delivered(),
		DeliveryAttempts: attempts,
		DeliveryRetries:  failures,
		DriftRetrains:    h.driftRounds,
		FirstDriftAt:     h.firstDriftAt,
		QueriesPending:   h.pending,
		Ops:              h.tally,
	}, nil
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

// tracef appends one line to the trace.
func (h *Harness) tracef(format string, args ...any) {
	h.trace = append(h.trace, fmt.Sprintf(format, args...))
}
