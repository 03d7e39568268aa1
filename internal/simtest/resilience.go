package simtest

// Resilience fault orchestration: the slow-disk stall, the hung trainer and
// the ingest flood (DESIGN.md §11). Each orchestration drives the live
// engine through one overload/stall episode and checks the degraded-mode,
// admission-control and watchdog invariants against the mirror; the exp*
// counters on the Harness predict the engine's resilience counters, which
// checkResilience compares before every engine teardown.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/faultinject"
	"opprentice/internal/tsdb"
)

const (
	// simInflight is the per-shard ingest budget the simulation runs with:
	// small enough that a single oversized batch (simInflight+1 points)
	// trips admission control from a single-threaded driver.
	simInflight = 512
	// stallWALDeadline / stallTrainDeadline are the tightened deadlines
	// during a fault window, so a stall is detected in milliseconds instead
	// of the production seconds/minutes.
	stallWALDeadline   = 250 * time.Millisecond
	stallTrainDeadline = 250 * time.Millisecond
	// prodWALDeadline / prodTrainDeadline restore the engine defaults after
	// a fault window. The setters treat zero as "disabled", so the restore
	// must store the explicit defaults.
	prodWALDeadline   = 2 * time.Second
	prodTrainDeadline = 5 * time.Minute
	// recoveryWindow is the degraded-recovery hysteresis the simulation
	// configures, and degradedBatches how many batches ride the degraded
	// path before the stall clears.
	recoveryWindow  = 150 * time.Millisecond
	degradedBatches = 2
	// stallAwait bounds every wait inside a stall orchestration. The
	// watchdog fires within ~1s of real time at the tightened deadlines, so
	// ten seconds means "the watchdog is off", not "slow".
	stallAwait = 10 * time.Second
)

// gatedStore wraps the engine's store so a StallGate can wedge every
// durable write, emulating a disk that has stopped answering. Reads and
// series creation stay untouched: the simulated failure is a slow data
// path, not a missing one. Writes submitted while the gate is armed are
// held and forwarded in submission order once it opens — the log must
// replay to exactly what was appended.
type gatedStore struct {
	engine.Store
	gate *faultinject.StallGate

	mu   sync.Mutex
	held []func() // forwards parked behind the gate, oldest first
}

func (g *gatedStore) Submit(ctx context.Context, rec tsdb.Record, done func(error)) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rec.Meta != nil || (!g.gate.Armed() && len(g.held) == 0) {
		return g.Store.Submit(ctx, rec, done)
	}
	g.held = append(g.held, func() {
		// The engine was told the write is accepted, so a refusal now must
		// still reach done.
		if err := g.Store.Submit(context.Background(), rec, done); err != nil {
			done(err)
		}
	})
	if len(g.held) == 1 {
		go func() {
			g.gate.Wait()
			g.mu.Lock()
			defer g.mu.Unlock()
			for _, forward := range g.held {
				forward()
			}
			g.held = nil
		}()
	}
	return nil
}

// chooseHungTarget picks the series whose next batch will cross the retrain
// watermark (so the wedged round is a scheduled retrain, not a manual one),
// preferring the scenario's choice. Empty when no series qualifies this
// step — the fault then defers to the next step.
func (h *Harness) chooseHungTarget() string {
	qualifies := func(st *seriesState) bool {
		return !st.dead && st.trained &&
			st.total+h.scen.BatchPoints-st.pointsAtTrain >= st.ppw
	}
	if pref := h.mirror[h.names[h.hungTarget%len(h.names)]]; qualifies(pref) {
		return pref.spec.Name
	}
	for _, name := range h.names {
		if qualifies(h.mirror[name]) {
			return name
		}
	}
	return ""
}

// stepHungTrainer wedges the scheduled retrain that st's next batch
// triggers: it arms the training gate and tightens the train deadline, then
// lets the regular append run — appendChecked routes the gated round's
// aftermath to afterStalledTrain via stallArmed.
func (h *Harness) stepHungTrainer(st *seriesState) error {
	name := st.spec.Name
	h.tracef("step %d: hung_trainer %s (watchdog enabled=%v)", h.step, name, !h.DisableWatchdog)
	if h.DisableWatchdog {
		// The production deadline outlives stallAwait: to the harness the
		// watchdog never fires.
		h.eng.SetTrainDeadline(prodTrainDeadline)
	} else {
		h.eng.SetTrainDeadline(stallTrainDeadline)
	}
	h.trainGate.Arm()
	h.stallArmed = true
	defer func() {
		// Idempotent cleanup for the violation paths: afterStalledTrain
		// already released and restored on success.
		h.stallArmed = false
		h.trainGate.Release()
		h.eng.SetTrainDeadline(prodTrainDeadline)
	}()
	if err := h.appendChecked(st, h.scen.BatchPoints); err != nil {
		return err
	}
	if !h.hungDone {
		return h.fail("watchdog", "series %s: hung-trainer step %d did not cross the retrain watermark — scenario scheduling bug", name, h.step)
	}
	return nil
}

// afterStalledTrain is the gated counterpart of afterWeeklyTrain: the round
// the append just scheduled is wedged on the training gate, and the
// watchdog must abandon it, retry, and quarantine the series — after which
// a manual retrain over the cleared gate must lift the quarantine.
func (h *Harness) afterStalledTrain(st *seriesState) error {
	name := st.spec.Name
	h.hungDone = true

	// The first attempt stalls, the watchdog retries with backoff, and the
	// retry stalls too — tripping the failure limit of 2.
	for attempt := 1; attempt <= 2; attempt++ {
		ev, ok := h.awaitTrainWithin(name, stallAwait)
		if !ok {
			return h.fail("watchdog", "series %s: no TrainDone within %v for gated round %d — the training watchdog never abandoned the stalled work",
				name, stallAwait, attempt)
		}
		if ev.err == nil {
			return h.fail("watchdog", "series %s: gated training round %d reported success while the gate was armed", name, attempt)
		}
		if !errors.Is(ev.err, engine.ErrStalled) {
			return h.fail("watchdog", "series %s: gated round %d failed with %v, want ErrStalled", name, attempt, ev.err)
		}
	}
	h.expStalls += 2
	h.expRetries++

	// The quarantine trip runs after the TrainDone hook fires (the hook is
	// deferred inside the round), so poll briefly instead of asserting
	// immediately.
	quarantineBy := time.Now().Add(stallAwait)
	for {
		status, err := h.eng.Status(context.Background(), name)
		if err != nil {
			return h.fail("watchdog", "series %s: status during quarantine poll: %v", name, err)
		}
		if status.Quarantined {
			break
		}
		if time.Now().After(quarantineBy) {
			return h.fail("watchdog", "series %s: two consecutive stalls at the failure limit but the series never quarantined", name)
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.expQuarantined++
	if r := h.eng.Ready(); r.Ready || !containsStr(r.Quarantined, name) {
		return h.fail("watchdog", "series %s: quarantined but readiness %+v does not say so", name, r)
	}

	// Clear the wedge and prove a manual retrain lifts the quarantine and
	// publishes normally.
	h.stallArmed = false
	h.trainGate.Release()
	h.eng.SetTrainDeadline(prodTrainDeadline)
	res, err := h.eng.Train(context.Background(), name)
	if err != nil {
		return h.fail("watchdog", "series %s: manual retrain after the hang cleared failed: %v", name, err)
	}
	ev, aerr := h.awaitTrain(name)
	if aerr != nil {
		return aerr
	}
	if ev.err != nil {
		return h.fail("watchdog", "series %s: manual retrain's TrainDone reported %v", name, ev.err)
	}
	if res.Points != st.total {
		return h.fail("retrain", "series %s: manual retrain saw %d points, stream head is %d", name, res.Points, st.total)
	}
	st.pointsAtTrain = res.Points
	h.trains++
	if err := h.awaitPublishInto(st, res); err != nil {
		return err
	}
	if err := h.checkManifest(st, res.CThld, true); err != nil {
		return err
	}
	if err := h.eng.VerifyFeatureCache(name); err != nil {
		return h.fail("extract_cache", "series %s: incremental extraction diverges from cold after the stalled rounds: %v", name, err)
	}
	status, serr := h.eng.Status(context.Background(), name)
	if serr != nil {
		return serr
	}
	if status.Quarantined {
		return h.fail("watchdog", "series %s: still quarantined after a successful manual retrain", name)
	}
	h.tracef("step %d: %s stalled twice, quarantined, recovered by manual retrain (cthld=%.4f)", h.step, name, res.CThld)
	return nil
}

// faultSlowDisk stalls the store under one series' durable writes: the next
// batch blows the (tightened) WAL deadline and flips the series degraded,
// two more batches ride the degraded path (threshold-only advisory
// verdicts, bounded buffering), and once the stall clears the series must
// drain, recover through the hysteresis, and serve full-fidelity verdicts
// again — with zero lost points.
func (h *Harness) faultSlowDisk() error {
	var st *seriesState
	for _, name := range h.names {
		if s := h.mirror[name]; !s.dead && !s.corrupted {
			st = s
			break
		}
	}
	if st == nil {
		h.tracef("step %d: slow_disk skipped (no healthy series)", h.step)
		return nil
	}
	name := st.spec.Name
	n := h.scen.BatchPoints
	h.tracef("step %d: slow_disk %s", h.step, name)

	h.eng.SetWALDeadline(stallWALDeadline)
	h.walGate.Arm()
	released := false
	release := func() {
		if released {
			return
		}
		released = true
		h.walGate.Release()
		h.eng.SetWALDeadline(prodWALDeadline)
	}
	defer release()

	// The degrading batch rides the healthy path into the wedged store:
	// the verdicts are still full-model (computed before the durable
	// write), alarms included, but the deadline blows and the series must
	// flip degraded with the batch buffered, not lost.
	base := st.total
	res, err := h.appendRaw(st, n)
	if err != nil {
		return err
	}
	if res.Persisted {
		return h.fail("degraded", "series %s: store wedged but the append still reports persisted", name)
	}
	if !res.Degraded {
		return h.fail("degraded", "series %s: append blew the %v WAL deadline without entering degraded mode", name, stallWALDeadline)
	}
	if len(res.Verdicts) != n {
		return h.fail("verdicts", "series %s: %d verdicts for the degrading batch of %d", name, len(res.Verdicts), n)
	}
	for i, v := range res.Verdicts {
		if v.Index != base+i {
			return h.fail("verdicts", "series %s: degrading-batch verdict %d has index %d, want %d", name, i, v.Index, base+i)
		}
		if v.Degraded {
			return h.fail("degraded", "series %s: degrading batch's verdict %d flagged degraded — it was computed by the full model", name, i)
		}
		if v.Anomalous {
			st.anomSinceRestore++
		}
	}
	h.expDegEntered++

	// Degraded serving: threshold-only advisory verdicts, writes submitted
	// without waiting, nothing alarmed.
	for b := 0; b < degradedBatches; b++ {
		base = st.total
		res, err := h.appendRaw(st, n)
		if err != nil {
			return err
		}
		if res.Persisted {
			return h.fail("degraded", "series %s: degraded batch %d reports persisted with the store still wedged", name, b+1)
		}
		if !res.Degraded {
			return h.fail("degraded", "series %s: batch %d left degraded mode with the stall still in place", name, b+1)
		}
		if len(res.Verdicts) != n {
			return h.fail("degraded", "series %s: %d advisory verdicts for degraded batch of %d", name, len(res.Verdicts), n)
		}
		for i, v := range res.Verdicts {
			if v.Index != base+i {
				return h.fail("degraded", "series %s: degraded verdict %d has index %d, want %d", name, i, v.Index, base+i)
			}
			if !v.Degraded {
				return h.fail("degraded", "series %s: verdict %d during the degraded window not flagged degraded", name, i)
			}
			if math.IsNaN(v.Probability) || v.Probability < 0 || v.Probability > 1 {
				return h.fail("degraded", "series %s: degraded verdict at %d has probability %v outside [0,1]", name, v.Index, v.Probability)
			}
		}
		h.expBuffered += int64(n)
	}
	status, serr := h.eng.Status(context.Background(), name)
	if serr != nil {
		return serr
	}
	if !status.Degraded {
		return h.fail("degraded", "series %s: mid-window status does not report degraded", name)
	}
	if r := h.eng.Ready(); r.Ready || !containsStr(r.Degraded, name) {
		return h.fail("degraded", "series %s: degraded but readiness %+v does not say so", name, r)
	}

	// Clear the stall, wait for the held writes to commit, and wait out the
	// hysteresis (the wedged write completes "slow" at release, stamping the
	// last violation — the quiet period starts there).
	release()
	ctx, cancel := context.WithTimeout(context.Background(), stallAwait)
	err = h.eng.SyncWAL(ctx, name)
	cancel()
	if err != nil {
		return h.fail("degraded", "series %s: held writes did not commit after the stall cleared: %v", name, err)
	}
	time.Sleep(recoveryWindow + 250*time.Millisecond)

	// The next regular batch must recover the series: appendChecked demands
	// Persisted=true, full-model verdicts, and no degraded flag.
	if err := h.appendChecked(st, n); err != nil {
		return err
	}
	h.expDegRecovered++
	status, serr = h.eng.Status(context.Background(), name)
	if serr != nil {
		return serr
	}
	if status.Degraded {
		return h.fail("degraded", "series %s: still degraded after drain and recovery window", name)
	}
	if c := h.eng.Counters(); c.WALLostPoints != 0 {
		return h.fail("degraded", "series %s: %d points dropped from the log with the degraded buffer never at capacity", name, c.WALLostPoints)
	}
	h.tracef("step %d: slow_disk %s recovered (%d points buffered through the window)", h.step, name, degradedBatches*n)
	return nil
}

// faultIngestFlood pushes one batch over the per-shard in-flight budget and
// checks admission control sheds it whole: ErrOverloaded, zero points
// appended, and the next normal batch sails through.
func (h *Harness) faultIngestFlood() error {
	var st *seriesState
	for _, name := range h.names {
		if s := h.mirror[name]; !s.dead {
			st = s
			break
		}
	}
	if st == nil {
		h.tracef("step %d: ingest_flood skipped (no live series)", h.step)
		return nil
	}
	name := st.spec.Name
	before, err := h.eng.Status(context.Background(), name)
	if err != nil {
		return err
	}
	// Admission runs before validation, so the flood's contents never
	// matter — zero values and zero timestamps do fine.
	flood := make([]engine.Point, simInflight+1)
	_, aerr := h.eng.Append(context.Background(), name, flood, nil)
	if !errors.Is(aerr, engine.ErrOverloaded) {
		return h.fail("overload", "series %s: %d-point batch over the %d in-flight budget returned %v, want ErrOverloaded",
			name, len(flood), simInflight, aerr)
	}
	h.expSheds++
	after, err := h.eng.Status(context.Background(), name)
	if err != nil {
		return err
	}
	if after.Points != before.Points || after.Points != st.total {
		return h.fail("overload", "series %s: shed batch moved the point count %d -> %d (mirror %d) — sheds must be atomic",
			name, before.Points, after.Points, st.total)
	}
	if c := h.eng.Counters(); c.IngestSheds != h.expSheds {
		return h.fail("overload", "engine counted %d sheds, mirror expected %d", c.IngestSheds, h.expSheds)
	}
	// The overload is instantaneous: the next normal batch must pass every
	// regular invariant.
	if err := h.appendChecked(st, h.scen.BatchPoints); err != nil {
		return err
	}
	h.tracef("step %d: ingest_flood %s shed %d points atomically", h.step, name, len(flood))
	return nil
}

// appendRaw appends the next n generated points without the healthy-path
// assertions (appendChecked's persistence and degraded-mode guards do not
// hold inside a fault window) but with full mirror bookkeeping.
func (h *Harness) appendRaw(st *seriesState, n int) (engine.AppendResult, error) {
	name := st.spec.Name
	base := st.total
	if base+n > st.data.Series.Len() {
		return engine.AppendResult{}, fmt.Errorf("simtest: scenario ran out of generated data for %s", name)
	}
	pts := make([]engine.Point, n)
	for i := range pts {
		pts[i] = engine.Point{
			Timestamp: st.data.Series.TimeAt(base + i),
			Value:     st.data.Series.Values[base+i],
		}
	}
	res, err := h.eng.Append(context.Background(), name, pts, nil)
	if err != nil {
		return res, h.fail("append", "series %s: in-fault append of %d points at %d rejected: %v", name, n, base, err)
	}
	if res.Appended != n || res.Total != base+n {
		return res, h.fail("append", "series %s: in-fault append %d/%d, total %d want %d", name, res.Appended, n, res.Total, base+n)
	}
	st.total += n
	h.ingestSinceRestore += n
	for i := 0; i < n; i++ {
		st.labels = append(st.labels, false)
		st.types = append(st.types, 0)
	}
	return res, nil
}

// checkResilience compares the engine's overload/degraded/watchdog counters
// against the mirror's predictions. Called before every engine teardown
// (final shutdown and each crash) since the counters die with the instance.
func (h *Harness) checkResilience() error {
	c := h.eng.Counters()
	if c.IngestSheds != h.expSheds {
		return h.fail("overload", "engine shed %d batches since the last restore, mirror expected %d", c.IngestSheds, h.expSheds)
	}
	if c.DegradedEntered != h.expDegEntered || c.DegradedRecovered != h.expDegRecovered {
		return h.fail("degraded", "degraded transitions entered=%d recovered=%d, mirror expected %d/%d",
			c.DegradedEntered, c.DegradedRecovered, h.expDegEntered, h.expDegRecovered)
	}
	if c.WALBufferedPoints != h.expBuffered {
		return h.fail("degraded", "engine buffered %d points through degraded windows, mirror expected %d", c.WALBufferedPoints, h.expBuffered)
	}
	if c.WALLostPoints != 0 {
		return h.fail("degraded", "%d points dropped from the log with the degraded buffer never at capacity", c.WALLostPoints)
	}
	if c.TrainStalls != h.expStalls {
		return h.fail("watchdog", "watchdog abandoned %d training rounds, schedule expected %d", c.TrainStalls, h.expStalls)
	}
	if c.TrainRetries != h.expRetries {
		return h.fail("watchdog", "watchdog retried %d rounds, schedule expected %d", c.TrainRetries, h.expRetries)
	}
	if c.SeriesQuarantined != h.expQuarantined {
		return h.fail("watchdog", "%d series quarantined, schedule expected %d", c.SeriesQuarantined, h.expQuarantined)
	}
	if c.WorkerPanics != 0 {
		return h.fail("watchdog", "%d supervised workers panicked", c.WorkerPanics)
	}
	if r := h.eng.Ready(); !r.Ready {
		return h.fail("degraded", "engine not ready outside any fault window: %+v", r)
	}
	return nil
}

// resetResilienceExpectations zeroes the mirror's counter predictions; the
// engine's own counters start at zero with every instance.
func (h *Harness) resetResilienceExpectations() {
	h.expSheds = 0
	h.expDegEntered = 0
	h.expDegRecovered = 0
	h.expBuffered = 0
	h.expStalls = 0
	h.expRetries = 0
	h.expQuarantined = 0
	h.expPublishes = 0
	h.expRestoreWarm, h.expRestoreCold = 0, 0
}

func containsStr(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
