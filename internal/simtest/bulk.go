package simtest

// The bulk episode (FaultBulk). AppendBulk carries every /v1/ingest point and
// is the one front door that spreads a request's series over goroutines, so
// the scenario's last step drives it: random flush groups of 1–3 series and
// 1–6 frames of 1 to 320 points (past the monitor's 256-point step block),
// interleaved with labels, query answers, manual trains and rollbacks, at the
// scenario's GOMAXPROCS. The twin restored from the same disk state takes
// every frame one at a time through Append, and the two must agree bit for
// bit: summaries, alarms, pending queries and retrained thresholds. The
// episode ends with a crash right after an acked group: the data directory
// as it stood at the ack must hold every point the group reported appended.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/tsdb"
)

const (
	// bulkOps is how many operations the episode draws before its final
	// acked group; bulkWeeks how many generated weeks it may feed on.
	bulkOps   = 12
	bulkWeeks = 4
	// A group touches up to bulkMaxSeries series in up to bulkMaxFrames
	// frames, and at most simInflight points, so no shard sheds it.
	bulkMaxSeries = 3
	bulkMaxFrames = 6
	// bulkReserve points of every series are left for the final acked group.
	bulkReserve = 32
)

// procsMu serializes the bulk episodes of parallel seeds: GOMAXPROCS is
// process-wide, and each episode must run at its own scenario's.
var procsMu sync.Mutex

// faultBulk runs the bulk episode against the twin of a fresh crash restore.
func (h *Harness) faultBulk() error {
	if h.twin == nil {
		if err := h.crashRestore(); err != nil {
			return err
		}
	}
	procsMu.Lock()
	defer procsMu.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(h.scen.Procs))
	h.tracef("step %d: bulk episode at GOMAXPROCS=%d", h.step, h.scen.Procs)
	rng := rand.New(rand.NewSource(h.scen.Seed*7907 + 11))
	for op := 0; op < bulkOps; op++ {
		var err error
		switch r := rng.Intn(10); {
		case r < 6:
			_, err = h.bulkGroup(rng, bulkReserve)
		case r == 6:
			err = h.bulkLabel(rng)
		case r == 7:
			err = h.bulkAnswer(rng)
		case r == 8:
			err = h.bulkTrain(rng)
		default:
			err = h.bulkRollback()
		}
		if err == nil {
			err = h.checkExported()
		}
		if err != nil {
			return err
		}
	}
	if err := h.bulkShed(); err != nil {
		return err
	}
	return h.bulkCrash(rng)
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

// bulkRun is one series' share of a flush group as the harness built it.
type bulkRun struct {
	st      *seriesState
	base, n int
	closed  bool             // the run crossed its retrain watermark
	twin    []engine.Verdict // the twin's verdicts, frame after frame
}

// bulkGroup sends one random flush group to the live engine through
// AppendBulk and its frames, one Append each, to the twin, then checks the
// two against each other and the mirror. It leaves the last reserve points
// of every series' generated data alone, and returns the points applied.
func (h *Harness) bulkGroup(rng *rand.Rand, reserve int) (int, error) {
	ctx := context.Background()
	var cands []*seriesState
	for _, st := range h.liveSeries() {
		if st.total+reserve < st.data.Series.Len() {
			cands = append(cands, st)
		}
	}
	if len(cands) == 0 {
		h.tracef("step %d: bulk group skipped (generated data spent)", h.step)
		return 0, nil
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	runs := make([]*bulkRun, 1+rng.Intn(min(bulkMaxSeries, len(cands))))
	for i := range runs {
		runs[i] = &bulkRun{st: cands[i], base: cands[i].total}
	}

	var batches []engine.SeriesBatch
	var owners []*bulkRun
	points := 0
	for f := 1 + rng.Intn(bulkMaxFrames); f > 0; f-- {
		r := runs[rng.Intn(len(runs))]
		size := 1 + rng.Intn(32)
		if rng.Intn(6) == 0 {
			size = 200 + rng.Intn(121)
		}
		size = min(size, simInflight-points, r.st.data.Series.Len()-reserve-r.base-r.n)
		if r.closed || size <= 0 {
			continue
		}
		pts := make([]engine.Point, size)
		for i := range pts {
			pts[i].Value = r.st.data.Series.Values[r.base+r.n+i]
		}
		batches = append(batches, engine.SeriesBatch{Name: r.st.spec.Name, Points: pts})
		owners = append(owners, r)
		r.n += size
		points += size
		// A run arms its retrain at its end, the twin at the frame that
		// crosses the watermark: the run takes no frame past it, so both
		// engines' rounds snapshot the same history.
		r.closed = r.base+r.n-r.st.pointsAtTrain >= r.st.ppw
	}
	if len(batches) == 0 {
		return 0, nil
	}
	applied := len(batches)
	ghost := rng.Intn(6) == 0
	if ghost {
		// An unknown series fails its batch and everything after it, which
		// must leave the prefix applied.
		batches = append(batches,
			engine.SeriesBatch{Name: "ghost", Points: make([]engine.Point, 1)},
			engine.SeriesBatch{Name: runs[0].st.spec.Name, Points: make([]engine.Point, 1+rng.Intn(8))})
	}

	sent := batches
	if h.MutateGroup != nil {
		sent = h.MutateGroup(slices.Clone(batches))
	}
	sum, verdicts, err := h.eng.AppendBulk(ctx, sent, nil)
	if ghost != errors.Is(err, engine.ErrNotFound) || (!ghost && err != nil) {
		return 0, h.fail("bulk", "group of %d batches (unknown series: %v) returned %v", len(batches), ghost, err)
	}
	want := engine.BulkSummary{Appended: points, Batches: applied}
	for k, b := range batches[:applied] {
		res, terr := h.twin.eng.Append(ctx, b.Name, b.Points, nil)
		if terr != nil || !res.Persisted {
			return 0, h.fail("bulk", "series %s: the twin's Append of frame %d: persisted %v, %v", b.Name, k, res.Persisted, terr)
		}
		owners[k].twin = append(owners[k].twin, res.Verdicts...)
		for _, v := range res.Verdicts {
			if v.Anomalous {
				want.Alarms++
			}
		}
	}
	if sum != want {
		return 0, h.fail("bulk", "group summary %+v, the twin's frames add up to %+v", sum, want)
	}
	if !slices.ContainsFunc(runs, func(r *bulkRun) bool { return r.n > 0 && sameVerdicts(verdicts, r.twin) }) {
		return 0, h.fail("bulk", "the group's %d returned verdicts are no run's verdicts on the twin", len(verdicts))
	}

	var crossed []*seriesState
	for _, r := range runs {
		st := r.st
		for _, v := range r.twin {
			if v.Anomalous {
				st.anomSinceRestore++
			}
		}
		st.total += r.n
		h.ingestSinceRestore += r.n
		for i := 0; i < r.n; i++ {
			st.labels = append(st.labels, false)
			st.types = append(st.types, 0)
		}
		if r.closed {
			crossed = append(crossed, st)
		}
	}
	for _, st := range crossed {
		if err := h.afterWeeklyTrain(st); err != nil {
			return 0, err
		}
	}
	if err := h.sameTwinRounds(crossed...); err != nil {
		return 0, err
	}
	// Compared once the rounds are in: each resets its series' queries.
	if err := h.checkBulkRuns(runs); err != nil {
		return 0, err
	}
	h.tracef("step %d: bulk group of %d frames over %d series, %d points (%d retrained)", h.step, applied, len(runs), points, len(crossed))
	return points, nil
}

// checkBulkRuns compares each run of the group just applied: the live
// engine's values against the stream, and its alarms and pending queries
// against the twin's.
func (h *Harness) checkBulkRuns(runs []*bulkRun) error {
	ctx := context.Background()
	longest := 0
	for _, r := range runs {
		longest = max(longest, r.n)
	}
	recent := make(map[string][]float64)
	for _, in := range h.eng.Inspect(longest, 0) {
		recent[in.Name] = in.Recent
	}
	for _, r := range runs {
		if r.n == 0 {
			continue
		}
		name, data := r.st.spec.Name, r.st.data.Series
		got := recent[name]
		if len(got) < r.n {
			return h.fail("bulk", "series %s: %d recent values after a run of %d", name, len(got), r.n)
		}
		got = got[len(got)-r.n:]
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(data.Values[r.base+i]) {
				return h.fail("bulk", "series %s: value %d of the run is %v, the stream sent %v — frames applied out of order",
					name, r.base+i, v, data.Values[r.base+i])
			}
		}
		since := data.TimeAt(r.base - 1)
		la, lerr := h.eng.Alarms(name, since)
		ta, terr := h.twin.eng.Alarms(name, since)
		if lerr != nil || terr != nil || len(la) != len(ta) {
			return h.fail("bulk", "series %s: the run raised %d alarms, the twin %d (%v, %v)", name, len(la), len(ta), lerr, terr)
		}
		for i := range la {
			a, b := la[i], ta[i]
			if !a.Time.Equal(b.Time) || math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
				math.Float64bits(a.Probability) != math.Float64bits(b.Probability) ||
				math.Float64bits(a.CThld) != math.Float64bits(b.CThld) || a.Type != b.Type {
				return h.fail("bulk", "series %s: alarm %d is %+v, the twin's %+v", name, i, a, b)
			}
		}
		lq, lerr := h.eng.Queries(ctx, name)
		tq, terr := h.twin.eng.Queries(ctx, name)
		if lerr != nil || terr != nil || !slices.EqualFunc(lq, tq, func(a, b engine.Query) bool {
			return a.Start == b.Start && a.End == b.End && a.Points == b.Points &&
				math.Float64bits(a.Score) == math.Float64bits(b.Score)
		}) {
			return h.fail("bulk", "series %s: pending queries %+v, the twin's %+v (%v, %v)", name, lq, tq, lerr, terr)
		}
	}
	return nil
}

// sameVerdicts reports whether two verdict lists carry the same bits.
func sameVerdicts(a, b []engine.Verdict) bool {
	return slices.EqualFunc(a, b, func(x, y engine.Verdict) bool {
		return x.Index == y.Index && x.Anomalous == y.Anomalous && x.Degraded == y.Degraded &&
			x.Type == y.Type && math.Float64bits(x.Probability) == math.Float64bits(y.Probability)
	})
}

// sameTwinRounds awaits the twin's rounds for sts — the ones the live engine
// just ran, recorded as each series' newest publication — and compares them.
func (h *Harness) sameTwinRounds(sts ...*seriesState) error {
	var names []string
	for _, st := range sts {
		names = append(names, st.spec.Name)
	}
	got, err := h.awaitTwin(names...)
	if err != nil {
		return err
	}
	for _, st := range sts {
		live, twin := st.pubs[len(st.pubs)-1], got[st.spec.Name]
		if twin.Points != live.points || math.Float64bits(twin.CThld) != math.Float64bits(live.cthld) {
			return h.fail("bulk", "series %s: trained at %d points to cthld %v, the twin at %d to %v",
				st.spec.Name, live.points, live.cthld, twin.Points, twin.CThld)
		}
	}
	return nil
}

// awaitTwin collects one TrainDone and then one PublishDone from the twin
// for each name, and returns the training results.
func (h *Harness) awaitTwin(names ...string) (map[string]engine.TrainResult, error) {
	out := make(map[string]engine.TrainResult, len(names))
	timeout := time.After(hookTimeout)
	for len(out) < len(names) {
		select {
		case ev := <-h.twin.trainCh:
			if ev.err != nil || !slices.Contains(names, ev.series) {
				return nil, h.fail("restore_determinism", "the twin trained %s (err %v), awaiting %v", ev.series, ev.err, names)
			}
			out[ev.series] = ev.res
		case <-timeout:
			return nil, h.fail("hook_timeout", "no twin TrainDone for %v within %v", names, hookTimeout)
		}
	}
	for pubs := 0; pubs < len(names); pubs++ {
		select {
		case ev := <-h.twin.pubCh:
			if ev.err != nil || !slices.Contains(names, ev.series) {
				return nil, h.fail("restore_determinism", "the twin published %s (err %v), awaiting %v", ev.series, ev.err, names)
			}
		case <-timeout:
			return nil, h.fail("hook_timeout", "no twin PublishDone for %v within %v", names, hookTimeout)
		}
	}
	return out, nil
}

// bulkLabel applies one random untyped label window near st's head to both
// engines.
func (h *Harness) bulkLabel(rng *rand.Rand) error {
	live := h.liveSeries()
	st := live[rng.Intn(len(live))]
	lo := max(st.total-1-rng.Intn(2*st.ppw), 0)
	w := engine.Window{Start: lo, End: min(lo+1+rng.Intn(12), st.total), Anomalous: rng.Intn(4) != 0}
	return h.bulkRelabel(st, w.Start, w.End, w.Anomalous, func(e *engine.Engine) (engine.LabelResult, error) {
		return e.Label(context.Background(), st.spec.Name, []engine.Window{w})
	})
}

// bulkAnswer answers one pending label query on both engines.
func (h *Harness) bulkAnswer(rng *rand.Rand) error {
	qs, err := h.eng.Queries(context.Background(), "")
	if err != nil {
		return h.fail("bulk", "queries: %v", err)
	}
	qs = slices.DeleteFunc(qs, func(q engine.Query) bool { return h.mirror[q.Series].dead })
	if len(qs) == 0 {
		h.tracef("step %d: bulk query answer skipped (none pending)", h.step)
		return nil
	}
	q, anomalous := qs[rng.Intn(len(qs))], rng.Intn(2) == 0
	return h.bulkRelabel(h.mirror[q.Series], q.Start, q.End, anomalous, func(e *engine.Engine) (engine.LabelResult, error) {
		return e.AnswerQuery(context.Background(), q.Series, q.Start, q.End, anomalous)
	})
}

// bulkRelabel applies one untyped label action over [lo, hi) of st through
// apply on both engines, and mirrors it: an untyped action clears the class
// channel over its range.
func (h *Harness) bulkRelabel(st *seriesState, lo, hi int, anomalous bool, apply func(*engine.Engine) (engine.LabelResult, error)) error {
	res, err := apply(h.eng)
	tres, terr := apply(h.twin.eng)
	if err != nil || terr != nil {
		return h.fail("label", "series %s: labeling [%d, %d) rejected: live %v, twin %v", st.spec.Name, lo, hi, err, terr)
	}
	for i := lo; i < hi; i++ {
		st.labels[i], st.types[i] = anomalous, 0
	}
	if want := countTrue(st.labels); res != tres || res.AnomalousPoints != want {
		return h.fail("label", "series %s: labeling [%d, %d) gave %+v, the twin %+v, mirror %d anomalous points",
			st.spec.Name, lo, hi, res, tres, want)
	}
	h.tracef("step %d: bulk label %s [%d, %d) anomalous=%v", h.step, st.spec.Name, lo, hi, anomalous)
	return nil
}

// bulkTrain runs one manual training round on both engines.
func (h *Harness) bulkTrain(rng *rand.Rand) error {
	live := h.liveSeries()
	st := live[rng.Intn(len(live))]
	name := st.spec.Name
	res, err := h.eng.Train(context.Background(), name)
	if err != nil {
		return h.fail("retrain", "series %s: manual retrain in the bulk episode failed: %v", name, err)
	}
	if _, err := h.awaitTrain(name); err != nil {
		return err
	}
	st.pointsAtTrain = res.Points
	h.trains++
	if err := h.awaitPublishInto(st, res); err != nil {
		return err
	}
	if err := h.checkManifest(st, res.CThld, true); err != nil {
		return err
	}
	if _, err := h.twin.eng.Train(context.Background(), name); err != nil {
		return h.fail("bulk", "series %s: the twin's manual retrain failed: %v", name, err)
	}
	h.tracef("step %d: bulk train %s at %d points", h.step, name, res.Points)
	return h.sameTwinRounds(st)
}

// bulkRollback rolls the first eligible series back on both engines.
func (h *Harness) bulkRollback() error {
	for _, st := range h.liveSeries() {
		if len(st.pubs) < 2 {
			continue
		}
		name := st.spec.Name
		man, err := h.rollbackSeries(st)
		if err != nil {
			return err
		}
		tman, terr := h.twin.eng.RollbackModel(context.Background(), name)
		live, _ := h.eng.Status(context.Background(), name)
		twin, _ := h.twin.eng.Status(context.Background(), name)
		if terr != nil || tman.Current != man.Current || math.Float64bits(live.CThld) != math.Float64bits(twin.CThld) {
			return h.fail("bulk", "series %s: rolled back to gen %d (cthld %v), the twin to %d (cthld %v, %v)",
				name, man.Current, live.CThld, tman.Current, twin.CThld, terr)
		}
		return nil
	}
	h.tracef("step %d: bulk rollback skipped (no series with 2 generations)", h.step)
	return nil
}

// bulkShed sends one group over a shard's in-flight budget: admission must
// shed it whole.
func (h *Harness) bulkShed() error {
	st := h.liveSeries()[0]
	half := make([]engine.Point, simInflight/2+1)
	sum, _, err := h.eng.AppendBulk(context.Background(), []engine.SeriesBatch{
		{Name: st.spec.Name, Points: half}, {Name: st.spec.Name, Points: half},
	}, nil)
	if !errors.Is(err, engine.ErrOverloaded) || sum != (engine.BulkSummary{}) {
		return h.fail("overload", "series %s: a group of %d points on one shard gave %+v, %v; want it shed whole",
			st.spec.Name, 2*len(half), sum, err)
	}
	h.expSheds++
	return h.checkExported()
}

// bulkCrash applies one more group, copies the data directory the moment
// AppendBulk returns, crashes and restores, and checks that the copy holds
// every acked point: an acked group is durable, not merely queued.
func (h *Harness) bulkCrash(rng *rand.Rand) error {
	if n, err := h.bulkGroup(rng, 0); err != nil || n == 0 {
		return cmp.Or(err, h.fail("bulk", "no generated data left for the final group"))
	}
	acked := filepath.Join(h.scratch, fmt.Sprintf("acked-%d", h.crashes))
	if err := copyTree(h.dataDir, acked); err != nil {
		return fmt.Errorf("simtest: copy the data dir at the ack: %w", err)
	}
	defer os.RemoveAll(acked)
	if err := h.crashRestore(); err != nil {
		return err
	}
	probe, err := tsdb.Open(acked)
	if err != nil {
		return fmt.Errorf("simtest: open the data dir copied at the ack: %w", err)
	}
	defer probe.Close()
	for _, st := range h.liveSeries() {
		loaded, err := probe.Load(st.spec.Name)
		if err != nil || len(loaded.Values) != st.total {
			n := 0
			if err == nil {
				n = len(loaded.Values)
			}
			return h.fail("bulk", "series %s: the log as of the ack holds %d of %d acked points (%v)", st.spec.Name, n, st.total, err)
		}
		for i, v := range loaded.Values {
			if math.Float64bits(v) != math.Float64bits(st.data.Series.Values[i]) {
				return h.fail("bulk", "series %s: the log as of the ack holds %v at %d, the stream sent %v", st.spec.Name, v, i, st.data.Series.Values[i])
			}
		}
	}
	h.tracef("step %d: crash right after an acked group: every acked point on disk", h.step)
	return nil
}
