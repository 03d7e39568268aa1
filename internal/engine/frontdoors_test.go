package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"opprentice/internal/core"
)

// frontDoorSeed pins the batch splits (seed policy: DESIGN.md "Seeds and
// reproducibility"); the series itself is the kpigen fixture of
// trainableTypedSeries.
const frontDoorSeed int64 = 1601

// TestFrontDoorsAgree: a point is judged the same whichever in-process door
// it comes through. Four identically trained engines (training is
// deterministic) take the same held-back week of a generated KPI through
// Monitor.Step, Monitor.StepBatch, Engine.Append and Engine.AppendBulk — the
// batched doors at random splits — and every verdict must carry the same
// bits: probability, decision, threshold, type. It guards the two kernels
// under all four doors, the detector battery and the forest walk, against
// any dependence on how a stream was cut into calls.
func TestFrontDoorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four models per configuration")
	}
	ctx := context.Background()
	for name, scfg := range map[string]SeriesConfig{
		"ewma": {},
		"evt":  {CThldPredictor: "evt"}, // the threshold then moves with every point
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(frontDoorSeed))
			// One point short of the week, so no door arms the weekly retrain.
			eStep, future, base := trainableTypedSeries(t, 9, scfg)
			future = future[:len(future)-1]
			monitorOf := func(e *Engine) *core.Monitor {
				m, err := e.lookup("pv")
				if err != nil {
					t.Fatal(err)
				}
				return m.monitor
			}
			splits := func(visit func(lo, hi int)) {
				for lo := 0; lo < len(future); {
					hi := lo + 1 + rng.Intn(40)
					if hi > len(future) {
						hi = len(future)
					}
					visit(lo, hi)
					lo = hi
				}
			}

			want := make([]core.Verdict, 0, len(future))
			for mon, i := monitorOf(eStep), 0; i < len(future); i++ {
				want = append(want, mon.Step(future[i]))
			}
			anomalous := 0
			for _, v := range want {
				if v.Anomalous {
					anomalous++
				}
			}
			if anomalous == 0 || anomalous == len(want) {
				t.Fatalf("%d of %d verdicts anomalous: the fixture does not exercise both decisions", anomalous, len(want))
			}

			eBatch, _, _ := trainableTypedSeries(t, 9, scfg)
			var batched []core.Verdict
			splits(func(lo, hi int) { batched = monitorOf(eBatch).StepBatch(future[lo:hi], batched) })
			for i, v := range batched {
				if v != want[i] {
					t.Fatalf("point %d: StepBatch %+v, Step %+v", i, v, want[i])
				}
			}
			if len(batched) != len(want) {
				t.Fatalf("StepBatch gave %d verdicts for %d points", len(batched), len(want))
			}

			// The engine doors expose the verdict's probability, decision and
			// type, and the alarm ring the threshold each alarm was judged by.
			sameEngineVerdicts := func(door string, lo int, got []Verdict) {
				t.Helper()
				for k, v := range got {
					w := want[lo+k]
					if v.Index != base+lo+k || math.Float64bits(v.Probability) != math.Float64bits(w.Probability) ||
						v.Anomalous != w.Anomalous || v.Type != w.Class.Wire() || v.Degraded {
						t.Fatalf("point %d: %s %+v, Step %+v", lo+k, door, v, w)
					}
				}
			}
			sameAlarms := func(door string, e *Engine) {
				t.Helper()
				alarms, err := e.Alarms("pv", time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				k := 0
				for i, w := range want {
					if !w.Anomalous {
						continue
					}
					if k >= len(alarms) {
						t.Fatalf("%s: %d alarms, Step raised more", door, len(alarms))
					}
					a := alarms[k]
					k++
					if a.Value != future[i] || math.Float64bits(a.Probability) != math.Float64bits(w.Probability) ||
						math.Float64bits(a.CThld) != math.Float64bits(w.CThld) || a.Type != w.Class.Wire() {
						t.Fatalf("point %d: %s alarm %+v, Step %+v", i, door, a, w)
					}
				}
				if k != len(alarms) {
					t.Fatalf("%s: %d alarms, Step raised %d", door, len(alarms), k)
				}
			}
			points := func(lo, hi int) []Point {
				pts := make([]Point, hi-lo)
				for k := range pts {
					pts[k].Value = future[lo+k]
				}
				return pts
			}

			eAppend, _, _ := trainableTypedSeries(t, 9, scfg)
			splits(func(lo, hi int) {
				res, err := eAppend.Append(ctx, "pv", points(lo, hi), nil)
				if err != nil || len(res.Verdicts) != hi-lo {
					t.Fatalf("Append [%d, %d): %d verdicts, err %v", lo, hi, len(res.Verdicts), err)
				}
				sameEngineVerdicts("Append", lo, res.Verdicts)
			})
			sameAlarms("Append", eAppend)

			eBulk, _, _ := trainableTypedSeries(t, 9, scfg)
			bulkAlarms := 0
			splits(func(lo, hi int) {
				// AppendBulk hands back the verdicts of its last batch.
				sum, verdicts, err := eBulk.AppendBulk(ctx, []SeriesBatch{{Name: "pv", Points: points(lo, hi)}}, nil)
				if err != nil || sum.Appended != hi-lo || len(verdicts) != hi-lo {
					t.Fatalf("AppendBulk [%d, %d): %+v, %d verdicts, err %v", lo, hi, sum, len(verdicts), err)
				}
				sameEngineVerdicts("AppendBulk", lo, verdicts)
				bulkAlarms += sum.Alarms
			})
			if bulkAlarms != anomalous {
				t.Fatalf("AppendBulk summaries count %d alarms, Step raised %d", bulkAlarms, anomalous)
			}
			sameAlarms("AppendBulk", eBulk)
		})
	}
}
