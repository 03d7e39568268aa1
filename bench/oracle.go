package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/service"
)

// tally counts the operations a run attempted and those that failed:
// transport errors, non-2xx answers, sheds, degraded or unpersisted
// answers, and every mismatch against the reference. It is safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string // the first few failures, for the report
}

// ok records one attempted operation that succeeded.
func (t *tally) ok() { t.add(1) }

// add records n attempted operations that succeeded.
func (t *tally) add(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail records one attempted operation that failed, and why.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// expect records one attempted operation and fails it, with the reason
// given, unless ok holds.
func (t *tally) expect(ok bool, format string, args ...any) {
	if ok {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// check records one attempted operation and fails it when err is non-nil.
func (t *tally) check(err error, what string) bool {
	if err != nil {
		t.fail("%s: %v", what, err)
		return false
	}
	t.ok()
	return true
}

// Training and scoring are deterministic: two engines fed the same creates,
// appends, labels and trains give bit-identical probabilities. The oracle
// therefore records, for a sample of the series, everything the harness sent
// and everything the daemon answered, and afterwards replays the inputs
// through an in-process engine without a store and compares the answers bit
// for bit. A full reference would double a run's CPU time, which the
// benchmark's time cap does not allow; every series goes through the same
// code, and the unsampled ones are still checked structurally (counts,
// indices, flags) on every answer.
const oracleSeries = 2

type opKind int

const (
	opPoints opKind = iota // values appended; verdicts, when kept, compared
	opLabel                // windows labelled
	opTrain                // trained; the daemon's cThld compared
	opCheck                // the daemon's status and alarms compared
	// opColdRestart: the daemon restarted without its models and retrained
	// from its log, so the reference starts over from the same history.
	opColdRestart
)

// seriesOp is one step of a sampled series' history as the daemon saw it.
type seriesOp struct {
	kind     opKind
	values   []float64
	verdicts []engine.Verdict // daemon's answers to a scrape; nil for streamed points
	windows  []service.LabelWindow
	cthld    float64
	status   engine.Status
	alarms   []engine.Alarm
}

// seriesLog is the ordered record of one sampled series. Only the client
// that owns the series appends to it, one phase at a time.
type seriesLog struct {
	in  seriesInput
	ops []seriesOp
}

func (l *seriesLog) points(values []float64, verdicts []engine.Verdict) {
	l.ops = append(l.ops, seriesOp{
		kind:     opPoints,
		values:   append([]float64(nil), values...),
		verdicts: append([]engine.Verdict(nil), verdicts...),
	})
}

// replay feeds the log to a fresh in-process engine and returns how many
// comparisons it made and a description of each mismatch.
func (l *seriesLog) replay(ctx context.Context) (compared int, mismatches []string) {
	name := l.in.name
	bad := func(format string, args ...any) {
		mismatches = append(mismatches, name+": "+fmt.Sprintf(format, args...))
	}
	fresh := func() *engine.Engine {
		eng := engine.New(engine.Config{Log: quiet})
		if err := eng.Create(name, l.in.config()); err != nil {
			bad("reference create: %v", err)
		}
		return eng
	}
	eng := fresh()
	defer func() { eng.Close() }()
	var (
		pts     []engine.Point
		history []engine.Point        // every value so far
		windows []service.LabelWindow // every label so far
	)
	for i, op := range l.ops {
		switch op.kind {
		case opPoints:
			pts = pts[:0]
			for _, v := range op.values {
				pts = append(pts, engine.Point{Value: v})
			}
			history = append(history, pts...)
			res, err := eng.Append(ctx, name, pts, nil)
			if err != nil {
				bad("op %d: reference append: %v", i, err)
				continue
			}
			if op.verdicts == nil {
				continue
			}
			compared += len(op.verdicts)
			if len(res.Verdicts) != len(op.verdicts) {
				bad("op %d: %d verdicts, reference has %d", i, len(op.verdicts), len(res.Verdicts))
				continue
			}
			for k, want := range res.Verdicts {
				if got := op.verdicts[k]; !sameVerdict(got, want) {
					bad("op %d: verdict %+v, reference %+v", i, got, want)
				}
			}
		case opLabel:
			windows = append(windows, op.windows...)
			if _, err := eng.Label(ctx, name, op.windows); err != nil {
				bad("op %d: reference label: %v", i, err)
			}
		case opTrain:
			compared++
			res, err := eng.Train(ctx, name)
			if err != nil {
				bad("op %d: reference train: %v", i, err)
			} else if math.Float64bits(res.CThld) != math.Float64bits(op.cthld) {
				bad("op %d: trained cthld %v, reference %v", i, op.cthld, res.CThld)
			}
		case opColdRestart:
			eng.Close()
			eng = fresh()
			_, err := eng.Append(ctx, name, history, nil)
			if err == nil {
				_, err = eng.Label(ctx, name, windows)
			}
			if err == nil {
				_, err = eng.Train(ctx, name)
			}
			if err != nil {
				bad("op %d: reference cold restart: %v", i, err)
			}
		case opCheck:
			compared += 2
			st, err := eng.Status(ctx, name)
			if err != nil {
				bad("op %d: reference status: %v", i, err)
			} else if st.Points != op.status.Points || st.Trained != op.status.Trained ||
				math.Float64bits(st.CThld) != math.Float64bits(op.status.CThld) ||
				st.AnomalousPoints != op.status.AnomalousPoints {
				bad("op %d: status %+v, reference %+v", i, op.status, st)
			}
			alarms, _ := eng.Alarms(name, time.Time{})
			if len(alarms) != len(op.alarms) {
				bad("op %d: %d alarms, reference has %d", i, len(op.alarms), len(alarms))
				continue
			}
			for k, want := range alarms {
				got := op.alarms[k]
				if !got.Time.Equal(want.Time) || got.Type != want.Type ||
					math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
					math.Float64bits(got.Probability) != math.Float64bits(want.Probability) ||
					math.Float64bits(got.CThld) != math.Float64bits(want.CThld) {
					bad("op %d: alarm %d %+v, reference %+v", i, k, got, want)
					break
				}
			}
		}
	}
	return compared, mismatches
}

func sameVerdict(a, b engine.Verdict) bool {
	return a.Index == b.Index && a.Anomalous == b.Anomalous && a.Degraded == b.Degraded &&
		a.Type == b.Type && math.Float64bits(a.Probability) == math.Float64bits(b.Probability)
}
