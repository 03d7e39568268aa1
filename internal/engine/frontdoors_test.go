package engine

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/kpigen"
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
// bits: probability, decision, threshold, type. A last leg feeds three
// series through AppendBulk in interleaved groups (bulkFleetAgrees). It
// guards the two kernels under all four doors, the detector battery and the
// forest walk, against any dependence on how a stream was cut into calls or
// how a flush group spread its series over cores.
func TestFrontDoorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("trains ten models per configuration")
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
			sameAlarms(t, "Append", eAppend, "pv", want, future)

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
			sameAlarms(t, "AppendBulk", eBulk, "pv", want, future)

			bulkFleetAgrees(t, scfg, rng)
		})
	}
}

// bulkFleetAgrees is TestFrontDoorsAgree's multi-series leg: the AppendBulk
// door as the ingest handler drives it. Three trained series (kpigen PV, SR,
// SRT) take three held-back weeks each in groups of interleaved frames at
// random splits — some groups one series' frames only, some runs straddling
// the monitor's 256-point step block — and every group's summary must be
// exact and each series' verdicts must carry the bits of its own Monitor.Step
// path. A group applies a series' frames as one StepBatch, so afterwards the
// series' vbatch holds exactly its verdicts for the group.
func bulkFleetAgrees(t *testing.T, scfg SeriesConfig, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	profiles := kpigen.Profiles(kpigen.Small)
	eStep, eBulk := newTestEngine(t), newTestEngine(t)
	futures := make([][]float64, len(profiles))
	want := make([][]core.Verdict, len(profiles))
	for s, p := range profiles {
		futures[s], _ = trainTypedSeries(t, eStep, p.Name, p, 11, 3, scfg)
		trainTypedSeries(t, eBulk, p.Name, p, 11, 3, scfg)
		m, err := eStep.lookup(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range futures[s] {
			want[s] = append(want[s], m.monitor.Step(v))
		}
	}

	type span struct{ lo, hi int } // a series' points in one group
	next := make([]int, len(profiles))
	longest, soloRepeats := 0, 0
	for {
		spans := make([]span, len(profiles))
		left := false
		for s := range spans {
			spans[s] = span{next[s], next[s]}
			left = left || next[s] < len(futures[s])
		}
		if !left {
			break
		}
		var batches []SeriesBatch
		solo := rng.Intn(4) == 0 // a group of one series' frames only
		s := rng.Intn(len(profiles))
		for k := 1 + rng.Intn(16); k > 0; k-- {
			if !solo {
				s = rng.Intn(len(profiles))
			}
			lo := spans[s].hi
			hi := min(lo+1+rng.Intn(120), len(futures[s]))
			if lo == hi {
				continue
			}
			pts := make([]Point, hi-lo)
			for j := range pts {
				pts[j].Value = futures[s][lo+j]
			}
			batches = append(batches, SeriesBatch{Name: profiles[s].Name, Points: pts})
			spans[s].hi = hi
		}
		if len(batches) == 0 {
			continue
		}
		if solo && len(batches) > 1 {
			soloRepeats++
		}

		wantSum := BulkSummary{Batches: len(batches)}
		for s, sp := range spans {
			wantSum.Appended += sp.hi - sp.lo
			for _, v := range want[s][sp.lo:sp.hi] {
				if v.Anomalous {
					wantSum.Alarms++
				}
			}
		}
		sum, _, err := eBulk.AppendBulk(ctx, batches, nil)
		if err != nil || sum != wantSum {
			t.Fatalf("AppendBulk fleet group: %+v, err %v, want %+v", sum, err, wantSum)
		}
		for s, sp := range spans {
			if sp.lo == sp.hi {
				continue
			}
			longest = max(longest, sp.hi-sp.lo)
			m, err := eBulk.lookup(profiles[s].Name)
			if err != nil {
				t.Fatal(err)
			}
			m.mu.Lock()
			got := slices.Clone(m.vbatch)
			m.mu.Unlock()
			if len(got) != sp.hi-sp.lo {
				t.Fatalf("%s [%d, %d): the run gave %d verdicts", profiles[s].Name, sp.lo, sp.hi, len(got))
			}
			for k, v := range got {
				if w := want[s][sp.lo+k]; v != w {
					t.Fatalf("%s point %d: AppendBulk fleet %+v, Step %+v", profiles[s].Name, sp.lo+k, v, w)
				}
			}
			next[s] = sp.hi
		}
	}
	if longest <= 256 || soloRepeats == 0 {
		t.Fatalf("longest run %d points, %d one-series groups of several frames: the splits miss the step block or the repeats",
			longest, soloRepeats)
	}
	for s, p := range profiles {
		sameAlarms(t, "AppendBulk fleet", eBulk, p.Name, want[s], futures[s])
	}
}

// sameAlarms checks name's alarm ring on e against the Step path: one alarm
// per anomalous verdict, in order, with the value and the verdict's
// probability, threshold and type.
func sameAlarms(t *testing.T, door string, e *Engine, name string, want []core.Verdict, values []float64) {
	t.Helper()
	alarms, err := e.Alarms(name, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for i, w := range want {
		if !w.Anomalous {
			continue
		}
		if k >= len(alarms) {
			t.Fatalf("%s %s: %d alarms, Step raised more", door, name, len(alarms))
		}
		a := alarms[k]
		k++
		if a.Value != values[i] || math.Float64bits(a.Probability) != math.Float64bits(w.Probability) ||
			math.Float64bits(a.CThld) != math.Float64bits(w.CThld) || a.Type != w.Class.Wire() {
			t.Fatalf("%s %s point %d: alarm %+v, Step %+v", door, name, i, a, w)
		}
	}
	if k != len(alarms) {
		t.Fatalf("%s %s: %d alarms, Step raised %d", door, name, len(alarms), k)
	}
}
