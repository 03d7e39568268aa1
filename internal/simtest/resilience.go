package simtest

// The resilience ops: the WAL stall, the hung trainer and the shed
// (DESIGN.md §11). Each drives the live engine through one overload or stall
// episode and checks the degraded-mode, admission-control and watchdog
// invariants against the mirror; the exp* counters on the Harness predict
// the engine's resilience counters, which checkExported compares after every
// op and checkResilience before every engine teardown.

import (
	"context"
	"errors"
	"slices"
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
	// of the production seconds/minutes. The setters restore the defaults
	// when given 0.
	stallWALDeadline   = 250 * time.Millisecond
	stallTrainDeadline = 250 * time.Millisecond
	// recoveryWindow is the degraded-recovery hysteresis the simulation
	// configures, and degradedBatches how many batches ride the degraded
	// path before the stall clears.
	recoveryWindow  = 150 * time.Millisecond
	degradedBatches = 2
	// stallAwait bounds every wait inside a stall episode. The watchdog
	// fires within ~1s of real time at the tightened deadlines, so ten
	// seconds means "the watchdog is off", not "slow".
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
func (h *Harness) chooseHungTarget(pref string) string {
	qualifies := func(st *seriesState) bool {
		return !st.dead && st.trained &&
			st.total+h.scen.BatchPoints-st.pointsAtTrain >= st.ppw
	}
	if qualifies(h.mirror[pref]) {
		return pref
	}
	for _, st := range h.liveSeries() {
		if qualifies(st) {
			return st.spec.Name
		}
	}
	return ""
}

// wedge is the hung op: it arms the training gate, so the round st's next
// batch schedules wedges, and tightens the train deadline so the watchdog
// abandons it in milliseconds — unless DisableWatchdog leaves the production
// deadline, which outlives stallAwait: to the harness the watchdog then
// never fires.
func (h *Harness) wedge(st *seriesState) error {
	h.tracef("step %d: hung_trainer %s (watchdog enabled=%v)", h.step, st.spec.Name, !h.DisableWatchdog)
	if !h.DisableWatchdog {
		h.eng.SetTrainDeadline(stallTrainDeadline)
	}
	h.trainGate.Arm()
	h.hung = st.spec.Name
	return nil
}

// stalledRound follows the round st's batch scheduled into the wedge: the
// watchdog must abandon it as ErrStalled, retry with backoff, abandon the
// retry too and quarantine the series at the failure limit of 2. Then the
// gate opens and the deadline returns to the default; the manual round the
// generator emits next must lift the quarantine.
func (h *Harness) stalledRound(st *seriesState) error {
	name := st.spec.Name
	h.hung, h.hungDone = "", true
	for attempt := 1; attempt <= 2; attempt++ {
		ev, ok := h.awaitTrainWithin(name, stallAwait)
		if !ok {
			return h.fail("watchdog", "series %s: no TrainDone within %v for gated round %d — the training watchdog never abandoned the stalled work",
				name, stallAwait, attempt)
		}
		if !errors.Is(ev.err, engine.ErrStalled) {
			return h.fail("watchdog", "series %s: gated round %d ended with %v while the gate was armed, want ErrStalled", name, attempt, ev.err)
		}
	}
	h.expStalls += 2
	h.expRetries++

	// The quarantine trips after the TrainDone hook fires (the hook is
	// deferred inside the round), and its counter after the flag: poll the
	// counter.
	for by := time.Now().Add(stallAwait); h.eng.Counters().SeriesQuarantined == h.expQuarantined; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(by) {
			return h.fail("watchdog", "series %s: two consecutive stalls at the failure limit but the series never quarantined", name)
		}
	}
	h.expQuarantined++
	st.quarantined = true
	if r := h.eng.Ready(); r.Ready || !slices.Contains(r.Quarantined, name) {
		return h.fail("watchdog", "series %s: quarantined but readiness %+v does not say so", name, r)
	}
	h.trainGate.Release()
	h.eng.SetTrainDeadline(0)
	h.tracef("step %d: %s stalled twice and quarantined", h.step, name)
	return nil
}

// stall is the WAL-stall op: it wedges the store under st's durable writes.
// The first batch blows the (tightened) WAL deadline and flips the series
// degraded, degradedBatches more ride the degraded path (threshold-only
// advisory verdicts, bounded buffering), and the stall clears. The series
// stays degraded until its next batch — the generator emits it at once —
// which must recover it with zero lost points.
func (h *Harness) stall(st *seriesState) error {
	ctx, name, n := context.Background(), st.spec.Name, h.scen.BatchPoints
	h.tracef("step %d: wal_stall %s", h.step, name)
	h.eng.SetWALDeadline(stallWALDeadline)
	h.walGate.Arm()
	for b := 0; b <= degradedBatches; b++ {
		base := st.total
		_, res, err := h.send(st, n)
		if err != nil {
			return err
		}
		if res.Persisted || !res.Degraded {
			return h.fail("degraded", "series %s: batch %d into the wedged store reports persisted=%v degraded=%v, want false/true", name, b, res.Persisted, res.Degraded)
		}
		// The degrading batch rode the healthy path: its verdicts are
		// full-model ones, alarms included, computed before the durable
		// write blew its deadline. The rest are advisory.
		if err := h.checkVerdicts(st, base, n, res.Verdicts, b > 0); err != nil {
			return err
		}
		h.advance(st, n)
		if b > 0 {
			h.expBuffered += int64(n)
		}
	}
	h.expDegEntered++
	st.degraded = true
	status, err := h.eng.Status(ctx, name)
	if err != nil || !status.Degraded {
		return h.fail("degraded", "series %s: mid-window status does not report degraded (%v)", name, err)
	}
	if r := h.eng.Ready(); r.Ready || !slices.Contains(r.Degraded, name) {
		return h.fail("degraded", "series %s: degraded but readiness %+v does not say so", name, r)
	}

	// Clear the stall, wait for the held writes to commit, and wait out the
	// hysteresis (the wedged write completes "slow" at release, stamping the
	// last violation — the quiet period starts there).
	h.walGate.Release()
	h.eng.SetWALDeadline(0)
	ctx, cancel := context.WithTimeout(ctx, stallAwait)
	err = h.eng.SyncWAL(ctx, name)
	cancel()
	if err != nil {
		return h.fail("degraded", "series %s: held writes did not commit after the stall cleared: %v", name, err)
	}
	time.Sleep(recoveryWindow + 250*time.Millisecond)
	return nil
}

// shed sends one batch over st's shard in-flight budget — simInflight+1
// points through Append, or a group of two halves through AppendBulk — and
// checks admission sheds it whole: ErrOverloaded, zero points appended.
// Admission runs before validation, so the contents never matter: zero
// values and zero timestamps do fine.
func (h *Harness) shed(st *seriesState, viaBulk bool) error {
	ctx, name := context.Background(), st.spec.Name
	var sum engine.BulkSummary
	var err error
	if viaBulk {
		half := make([]engine.Point, simInflight/2+1)
		sum, _, err = h.eng.AppendBulk(ctx, []engine.SeriesBatch{{Name: name, Points: half}, {Name: name, Points: half}}, nil)
	} else {
		_, err = h.eng.Append(ctx, name, make([]engine.Point, simInflight+1), nil)
	}
	status, serr := h.eng.Status(ctx, name)
	if !errors.Is(err, engine.ErrOverloaded) || sum != (engine.BulkSummary{}) || serr != nil || status.Points != st.total {
		return h.fail("overload", "series %s: a batch over the %d in-flight budget (bulk %v) gave %+v, %v; %d points (%v), mirror %d — want it shed whole",
			name, simInflight, viaBulk, sum, err, status.Points, serr, st.total)
	}
	h.expSheds++
	h.tracef("step %d: shed an over-budget batch on %s (bulk %v)", h.step, name, viaBulk)
	return nil
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
