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

	"opprentice/internal/engine"
	"opprentice/internal/kpigen"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/tsdb"
)

// The regime harness drives a single-series engine with a finite drift
// threshold through a regime change — a level shift in the KPI right after
// the drift detector's reference window fills — and checks the
// drift-specific invariants the classic matrix (whose drift threshold no PSI
// reaches, see engineConfig) cannot:
//
//   - under a regime change, a drift-armed retrain fires BEFORE the weekly
//     watermark tick would (the drive stays under one week of points);
//   - on stationary traffic the drift detector stays silent: zero
//     drift-armed retrains over the same drive;
//   - exactly one verdict per appended point, contiguous, across the
//     drift-triggered monitor swap;
//   - label queries surfaced by the queue can be answered mid-drive and the
//     answer lands durably (it survives the restore below);
//   - snapshot → restore → replay stays bit-identical: two engines restored
//     from byte-identical disk state after the drift retrain produce
//     bitwise-identical verdicts on identical probe traffic.
//
// A mutation self-test (TestSimRegimeMutation*) reruns the shift scenario
// with drift disabled and asserts the early retrain does NOT happen — the
// invariant fails for exactly the right reason, so it provably bites.

// regimeDriveDays is the post-boot drive length: short of a week on purpose,
// so any retrain during the drive is necessarily drift-armed.
const regimeDriveDays = 6

// regimeDriftThreshold is the PSI threshold the regime scenarios pin. The
// engine default (0.25, active.DefaultDriftThreshold) is a sensitivity
// choice: with day-sized windows a single burst of ordinary anomalies can
// clear it, which is fine in production (the retrain is incremental and
// cheap) but makes "stationary ⇒ zero drift retrains" seed-dependent. A full
// regime change lands PSI in the multiple-nats range — orders of magnitude
// above burst noise — so 1.0 separates the two cleanly on every seed.
const regimeDriftThreshold = 1.0

// regimeOutcome summarizes one regime scenario run.
type regimeOutcome struct {
	driftRetrains   int64 // engine counter at the end of the drive
	firstDriftAt    int   // points since last train when the first drift retrain was armed (-1: never)
	trains          int   // TrainDone events observed during the drive
	queriesAnswered int64 // engine counter at the end of the drive
	pendingQueries  int   // queue depth observed mid-drive, before answering
}

// regimeScenario parameterizes one run.
type regimeScenario struct {
	seed           int64
	shift          bool    // apply the level shift after the reference window fills
	driftThreshold float64 // 0 = regimeDriftThreshold; +Inf = never drifts (mutation self-test)
}

// runRegime executes one regime scenario inside baseDir and returns the
// outcome, or an error describing the first violated invariant.
func runRegime(scen regimeScenario, baseDir string) (regimeOutcome, error) {
	out := regimeOutcome{firstDriftAt: -1}
	dataDir := filepath.Join(baseDir, "data")
	modelDir := filepath.Join(baseDir, "models")
	for _, dir := range []string{dataDir, modelDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return out, err
		}
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	if scen.driftThreshold == 0 {
		scen.driftThreshold = regimeDriftThreshold
	}

	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10 // 8 boot + 6 drive days + 1 probe day, with slack
	p.Name = "regime"
	d := kpigen.Generate(p, scen.seed)
	ppd, err := d.Series.PointsPerDay()
	if err != nil {
		return out, err
	}
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		return out, err
	}
	bootN := 8 * ppw
	// The level shift begins one day after the boot training round, so the
	// drift detector's reference window (one day) captures only pre-shift
	// votes and the live windows only post-shift ones.
	shiftAt := bootN + ppd

	trainCh := make(chan trainEvent, 64)
	pubCh := make(chan pubEvent, 64)
	newConfig := func(store *tsdb.Store, models *modelreg.Registry, hooked bool) engine.Config {
		cfg := engine.Config{
			Log:            log,
			Store:          store,
			Models:         models,
			RetrainWorkers: 1,
			DriftThreshold: scen.driftThreshold,
			DriftWindow:    ppd,
		}
		if hooked {
			cfg.Hooks = engine.Hooks{
				TrainDone: func(series string, res engine.TrainResult, err error) {
					trainCh <- trainEvent{series: series, res: res, err: err}
				},
				PublishDone: func(series string, gen uint64, err error) {
					pubCh <- pubEvent{series: series, gen: gen, err: err}
				},
			}
		}
		return cfg
	}

	store, err := tsdb.Open(dataDir)
	if err != nil {
		return out, err
	}
	models, err := modelreg.Open(modelreg.Config{Dir: modelDir, Keep: 4})
	if err != nil {
		return out, err
	}
	eng := engine.New(newConfig(store, models, true))

	if err := eng.Create(p.Name, engine.SeriesConfig{
		IntervalSeconds: int(p.Interval / time.Second),
		Start:           d.Series.Start,
		Trees:           10,
		RetrainEvery:    ppw,
	}); err != nil {
		return out, err
	}

	// valueAt applies the regime change: a 60% level shift from shiftAt on.
	valueAt := func(i int) float64 {
		v := d.Series.Values[i]
		if scen.shift && i >= shiftAt {
			v *= 1.6
		}
		return v
	}
	appendDay := func(e *engine.Engine, base int) (engine.AppendResult, error) {
		pts := make([]engine.Point, ppd)
		for i := range pts {
			pts[i] = engine.Point{Timestamp: d.Series.TimeAt(base + i), Value: valueAt(base + i)}
		}
		return e.Append(context.Background(), p.Name, pts, nil)
	}

	// Boot: 8 weeks of history, ground-truth labels, one synchronous train.
	for base := 0; base < bootN; base += ppd {
		if _, err := appendDay(eng, base); err != nil {
			return out, fmt.Errorf("regime: boot append at %d: %w", base, err)
		}
	}
	var windows []engine.Window
	for _, w := range d.Labels.Windows() {
		if w.End <= bootN {
			windows = append(windows, engine.Window{Start: w.Start, End: w.End, Anomalous: true})
		}
	}
	if _, err := eng.Label(context.Background(), p.Name, windows); err != nil {
		return out, fmt.Errorf("regime: boot label: %w", err)
	}
	if _, err := eng.Train(context.Background(), p.Name); err != nil {
		return out, fmt.Errorf("regime: boot train: %w", err)
	}
	if err := drainEvent(trainCh, "TrainDone"); err != nil {
		return out, err
	}
	if err := drainEvent(pubCh, "PublishDone"); err != nil {
		return out, err
	}
	pointsAtTrain := bootN

	// Drive: one day per step, six days — strictly inside the weekly tick.
	for day := 0; day < regimeDriveDays; day++ {
		base := bootN + day*ppd
		res, err := appendDay(eng, base)
		if err != nil {
			return out, fmt.Errorf("regime: drive append day %d: %w", day, err)
		}
		if len(res.Verdicts) != ppd {
			return out, fmt.Errorf("regime: day %d: %d verdicts for %d appended points — exactly one verdict per point must survive the drift swap",
				day, len(res.Verdicts), ppd)
		}
		for i, v := range res.Verdicts {
			if v.Index != base+i {
				return out, fmt.Errorf("regime: day %d: verdict %d has index %d, want contiguous %d", day, i, v.Index, base+i)
			}
			if math.IsNaN(v.Probability) || v.Probability < 0 || v.Probability > 1 {
				return out, fmt.Errorf("regime: day %d: probability %v outside [0,1] at %d", day, v.Probability, v.Index)
			}
		}

		// First drift-armed round: record how far past the last train it
		// fired, then quiesce it so the monitor swap lands deterministically
		// between days.
		if c := eng.Counters(); c.DriftRetrains > out.driftRetrains {
			out.driftRetrains = c.DriftRetrains
			if out.firstDriftAt < 0 {
				out.firstDriftAt = base + ppd - pointsAtTrain
			}
			ev, err := awaitEvent(trainCh, "TrainDone")
			if err != nil {
				return out, err
			}
			if ev != nil && ev.err != nil {
				return out, fmt.Errorf("regime: drift-armed retrain failed: %v", ev.err)
			}
			out.trains++
			pointsAtTrain = bootN + (day+1)*ppd
			if err := drainEvent(pubCh, "PublishDone"); err != nil {
				return out, err
			}
		}

		// Mid-drive, before any shift effect can drain the queue via retrain:
		// answer the most uncertain pending query so the drift retrain (and
		// the restore below) sees a durable query-sourced label.
		if day == 1 {
			qs, err := eng.Queries(context.Background(), p.Name)
			if err != nil {
				return out, fmt.Errorf("regime: queries: %w", err)
			}
			out.pendingQueries = len(qs)
			if len(qs) > 0 {
				q := qs[0]
				anomalous := overlapsTruth(d, q.Start, q.End)
				if _, err := eng.AnswerQuery(context.Background(), p.Name, q.Start, q.End, anomalous); err != nil {
					return out, fmt.Errorf("regime: answer query [%d,%d): %w", q.Start, q.End, err)
				}
			}
		}
	}
	out.queriesAnswered = eng.Counters().QueriesAnswered

	// Snapshot → restore → replay: close everything, copy the disk state,
	// restore two engines (original dirs and the byte-identical copy) and
	// compare one probe day of verdicts bitwise.
	eng.Close()
	store.Close()
	twinData := filepath.Join(baseDir, "twin", "data")
	twinModels := filepath.Join(baseDir, "twin", "models")
	if err := copyTree(dataDir, twinData); err != nil {
		return out, fmt.Errorf("regime: snapshot data: %w", err)
	}
	if err := copyTree(modelDir, twinModels); err != nil {
		return out, fmt.Errorf("regime: snapshot models: %w", err)
	}
	probeBase := bootN + regimeDriveDays*ppd
	var probes [2][]engine.Verdict
	for i, dirs := range [][2]string{{dataDir, modelDir}, {twinData, twinModels}} {
		st, err := tsdb.Open(dirs[0])
		if err != nil {
			return out, err
		}
		reg, err := modelreg.Open(modelreg.Config{Dir: dirs[1], Keep: 4})
		if err != nil {
			st.Close()
			return out, err
		}
		e := engine.New(newConfig(st, reg, false))
		if _, err := e.Restore(context.Background()); err != nil {
			e.Close()
			st.Close()
			return out, fmt.Errorf("regime: restore (%d): %w", i, err)
		}
		res, err := appendDay(e, probeBase)
		if err != nil {
			e.Close()
			st.Close()
			return out, fmt.Errorf("regime: probe append (%d): %w", i, err)
		}
		probes[i] = res.Verdicts
		e.Close()
		st.Close()
	}
	if len(probes[0]) != len(probes[1]) || len(probes[0]) != ppd {
		return out, fmt.Errorf("regime: restored engines issued %d and %d verdicts for %d identical probe points",
			len(probes[0]), len(probes[1]), ppd)
	}
	for i := range probes[0] {
		a, b := probes[0][i], probes[1][i]
		if a.Index != b.Index || a.Anomalous != b.Anomalous ||
			math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
			return out, fmt.Errorf("regime: restored engines diverge at probe verdict %d: %+v vs %+v — restore must be bit-identical after a drift-triggered swap",
				i, a, b)
		}
	}
	return out, nil
}

// overlapsTruth reports whether [start, end) touches a ground-truth anomaly.
func overlapsTruth(d *kpigen.Dataset, start, end int) bool {
	for i := start; i < end && i < len(d.Labels); i++ {
		if i >= 0 && d.Labels[i] {
			return true
		}
	}
	return false
}

// awaitEvent waits for one lifecycle event with a generous timeout.
func awaitEvent(ch chan trainEvent, what string) (*trainEvent, error) {
	select {
	case ev := <-ch:
		return &ev, nil
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("regime: timed out waiting for %s", what)
	}
}

// drainEvent consumes exactly one event from a pubEvent/trainEvent channel.
func drainEvent[T any](ch chan T, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("regime: timed out waiting for %s", what)
	}
}
