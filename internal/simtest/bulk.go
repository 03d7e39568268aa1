package simtest

// The bulk episode. AppendBulk carries every /v1/ingest point and is the one
// front door that spreads a request's series over goroutines, so every
// classic scenario closes with it: random flush groups of 1–3 series and
// 1–6 frames of 1 to 320 points (past the monitor's 256-point step block),
// interleaved with labels, query answers, manual trains and rollbacks, at
// the scenario's GOMAXPROCS. The twin restored from the same disk state
// takes every frame one at a time through Append, and the two must agree bit
// for bit: summaries, alarms, pending queries and retrained thresholds. The
// episode ends with an acked group — the data directory as it stood at the
// ack must hold every point the group reported appended — and a crash.

import (
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

// bulkEpisode is the episode's generator. A crash restores the twin, then
// bulkOps ops drawn from the episode's own seeded stream run at the
// scenario's GOMAXPROCS, then a shed group, the acked group and a crash.
func (h *Harness) bulkEpisode(emit func(op) error) error {
	step := h.scen.Steps - 1
	if err := emit(op{step: step, kind: opCrash}); err != nil {
		return err
	}
	procsMu.Lock()
	defer procsMu.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(h.scen.Procs))
	h.tracef("step %d: bulk episode at GOMAXPROCS=%d", step, h.scen.Procs)
	rng := rand.New(rand.NewSource(h.scen.Seed*7907 + 11))
	for i := 0; i < bulkOps; i++ {
		live := h.liveSeries()
		o, ok := op{step: step}, true
		switch r := rng.Intn(10); {
		case r < 6:
			o, ok = h.drawGroup(rng, step, bulkReserve)
		case r == 6:
			// One untyped window near a series' head.
			st := live[rng.Intn(len(live))]
			lo := max(st.total-1-rng.Intn(2*st.ppw), 0)
			o = op{step: step, kind: opLabel, series: st.spec.Name, lo: lo, hi: min(lo+1+rng.Intn(12), st.total), anomalous: rng.Intn(4) != 0}
		case r == 7:
			qs, err := h.eng.Queries(context.Background(), "")
			if err != nil {
				return h.fail("bulk", "queries: %v", err)
			}
			qs = slices.DeleteFunc(qs, func(q engine.Query) bool { return h.mirror[q.Series].dead })
			if ok = len(qs) > 0; ok {
				q := qs[rng.Intn(len(qs))]
				o = op{step: step, kind: opAnswer, series: q.Series, lo: q.Start, hi: q.End, anomalous: rng.Intn(2) == 0}
			} else {
				h.tracef("step %d: query answer skipped (none pending)", step)
			}
		case r == 8:
			o = op{step: step, kind: opTrain, series: live[rng.Intn(len(live))].spec.Name}
		default:
			o, ok, _ = h.resolve(op{step: step, kind: opRollback})
		}
		if ok {
			if err := emit(o); err != nil {
				return err
			}
		}
	}
	if err := emit(op{step: step, kind: opShed, series: h.liveSeries()[0].spec.Name, viaBulk: true}); err != nil {
		return err
	}
	last, ok := h.drawGroup(rng, step, 0)
	if !ok {
		return h.fail("bulk", "no generated data left for the final group")
	}
	last.acked = true
	if err := emit(last); err != nil {
		return err
	}
	return emit(op{step: step, kind: opCrash})
}

// bulkRun is one series' share of a flush group.
type bulkRun struct {
	st      *seriesState
	base, n int
	closed  bool             // the run crossed its retrain watermark
	twin    []engine.Verdict // the twin's verdicts, frame after frame
}

// drawGroup draws one random flush group. It leaves the last reserve points
// of every series' generated data alone.
func (h *Harness) drawGroup(rng *rand.Rand, step, reserve int) (op, bool) {
	var cands []*seriesState
	for _, st := range h.liveSeries() {
		if st.total+reserve < st.data.Series.Len() {
			cands = append(cands, st)
		}
	}
	if len(cands) == 0 {
		h.tracef("step %d: bulk group skipped (generated data spent)", step)
		return op{}, false
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	runs := make([]bulkRun, 1+rng.Intn(min(bulkMaxSeries, len(cands))))
	for i := range runs {
		runs[i] = bulkRun{st: cands[i], base: cands[i].total}
	}
	o := op{step: step, kind: opBulk}
	points := 0
	for f := 1 + rng.Intn(bulkMaxFrames); f > 0; f-- {
		r := &runs[rng.Intn(len(runs))]
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
		o.batches = append(o.batches, engine.SeriesBatch{Name: r.st.spec.Name, Points: pts})
		r.n += size
		points += size
		// A run arms its retrain at its end, the twin at the frame that
		// crosses the watermark: the run takes no frame past it, so both
		// engines' rounds snapshot the same history.
		r.closed = r.base+r.n-r.st.pointsAtTrain >= r.st.ppw
	}
	if len(o.batches) == 0 {
		return op{}, false
	}
	o.applied = len(o.batches)
	if rng.Intn(6) == 0 {
		// An unknown series fails its batch and everything after it, which
		// must leave the prefix applied.
		o.batches = append(o.batches,
			engine.SeriesBatch{Name: "ghost", Points: make([]engine.Point, 1)},
			engine.SeriesBatch{Name: runs[0].st.spec.Name, Points: make([]engine.Point, 1+rng.Intn(8))})
	}
	return o, true
}

// bulkGroup is the bulk op: the group goes to the live engine through
// AppendBulk and its frames, one Append each, to the twin; the two must agree
// with each other and the mirror. An acked group's data directory, copied
// the moment the group is in, must replay every point.
func (h *Harness) bulkGroup(o op) error {
	var runs []*bulkRun
	owners := make([]*bulkRun, o.applied)
	want := engine.BulkSummary{Batches: o.applied}
	for k, b := range o.batches[:o.applied] {
		i := slices.IndexFunc(runs, func(r *bulkRun) bool { return r.st.spec.Name == b.Name })
		if i < 0 {
			st := h.mirror[b.Name]
			runs, i = append(runs, &bulkRun{st: st, base: st.total}), len(runs)
		}
		owners[k] = runs[i]
		runs[i].n += len(b.Points)
		want.Appended += len(b.Points)
	}
	ctx, ghost, sent := context.Background(), len(o.batches) > o.applied, o.batches
	if h.MutateGroup != nil {
		sent = h.MutateGroup(slices.Clone(o.batches))
	}
	sum, verdicts, err := h.eng.AppendBulk(ctx, sent, nil)
	if ghost != errors.Is(err, engine.ErrNotFound) || (!ghost && err != nil) {
		return h.fail("bulk", "group of %d batches (unknown series: %v) returned %v", len(o.batches), ghost, err)
	}
	for k, b := range o.batches[:o.applied] {
		res, terr := h.twin.eng.Append(ctx, b.Name, b.Points, nil)
		if terr != nil || !res.Persisted {
			return h.fail("bulk", "series %s: the twin's Append of frame %d: persisted %v, %v", b.Name, k, res.Persisted, terr)
		}
		owners[k].twin = append(owners[k].twin, res.Verdicts...)
		for _, v := range res.Verdicts {
			if v.Anomalous {
				want.Alarms++
			}
		}
	}
	if sum != want {
		return h.fail("bulk", "group summary %+v, the twin's frames add up to %+v", sum, want)
	}
	if !slices.ContainsFunc(runs, func(r *bulkRun) bool { return sameVerdicts(verdicts, r.twin) }) {
		return h.fail("bulk", "the group's %d returned verdicts are no run's verdicts on the twin", len(verdicts))
	}

	var crossed []*seriesState
	for _, r := range runs {
		for _, v := range r.twin {
			if v.Anomalous {
				r.st.anomSinceRestore++
			}
		}
		h.advance(r.st, r.n)
		if r.st.total-r.st.pointsAtTrain >= r.st.ppw {
			crossed = append(crossed, r.st)
		}
	}
	for _, st := range crossed {
		if err := h.awaitRound(st); err != nil {
			return err
		}
	}
	if err := h.sameTwinRounds(crossed...); err != nil {
		return err
	}
	// Compared once the rounds are in: each resets its series' queries.
	if err := h.checkBulkRuns(runs); err != nil {
		return err
	}
	h.tracef("step %d: bulk group of %d frames over %d series, %d points (%d retrained)", h.step, o.applied, len(runs), want.Appended, len(crossed))
	if !o.acked {
		return nil
	}
	acked := filepath.Join(h.scratch, "acked")
	if err := copyTree(h.dataDir, acked); err != nil {
		return fmt.Errorf("simtest: copy the data dir at the ack: %w", err)
	}
	defer os.RemoveAll(acked)
	return h.checkWALs(acked)
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
