package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
)

func TestMonitorEndToEnd(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 21)

	dets := smallRegistry(t)
	mon, err := NewMonitor(d.Series, d.Labels, dets, MonitorConfig{
		Forest:        forest.Config{Trees: 15, Seed: 1},
		SkipInitialCV: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mon.CThld() != 0.5 {
		t.Errorf("initial cThld = %v, want 0.5 with SkipInitialCV", mon.CThld())
	}

	// Stream a normal-looking continuation, then a blatant dip.
	future := kpigen.Generate(p, 22) // same profile, fresh noise
	alarms := 0
	n := 200
	for i := 0; i < n; i++ {
		v := future.Series.Values[i]
		if future.Labels[i] {
			continue // keep the continuation anomaly-free
		}
		if mon.Step(v).Anomalous {
			alarms++
		}
	}
	if alarms > n/4 {
		t.Errorf("%d alarms on mostly-normal stream of %d", alarms, n)
	}
	verdict := mon.Step(future.Series.Values[n] * 0.2) // 80% drop
	if !verdict.Anomalous {
		t.Errorf("blatant drop not flagged: %+v", verdict)
	}
	if verdict.Probability < 0 || verdict.Probability > 1 {
		t.Errorf("probability %v out of range", verdict.Probability)
	}
}

func TestMonitorRejectsBadInputs(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 23)
	dets := smallRegistry(t)
	if _, err := NewMonitor(d.Series, d.Labels[:10], dets, MonitorConfig{}); err == nil {
		t.Error("want error for label mismatch")
	}
	allNormal := make([]bool, d.Series.Len())
	if _, err := NewMonitor(d.Series, allNormal, dets, MonitorConfig{SkipInitialCV: true}); err == nil {
		t.Error("want error for single-class history")
	}
}

func TestMonitorRetrainUpdatesCThld(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 25)
	dets := smallRegistry(t)
	mon, err := NewMonitor(d.Series, d.Labels, dets, MonitorConfig{
		Forest:        forest.Config{Trees: 10, Seed: 2},
		SkipInitialCV: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := mon.CThld()
	// Retrain on an extended history (one more generated week).
	p2 := p
	p2.Weeks = 11
	d2 := kpigen.Generate(p2, 25)
	next, err := mon.Retrain(d2.Series, d2.Labels, nil, smallRegistry(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	after := next.CThld()
	if after < 0 || after > 1.01 {
		t.Errorf("cThld after retrain = %v", after)
	}
	// The threshold may legitimately stay put; the live monitor's must.
	if mon.CThld() != before {
		t.Errorf("Retrain moved the live monitor's cThld %v -> %v", before, mon.CThld())
	}

	if _, err := mon.Retrain(d2.Series, d2.Labels[:5], nil, smallRegistry(t), nil); err == nil {
		t.Error("want error for label mismatch on retrain")
	}
}

func TestMonitorDurationFilterSuppressesBlips(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 61)
	mon, err := NewMonitor(d.Series, d.Labels, smallRegistry(t), MonitorConfig{
		Forest:        forest.Config{Trees: 12, Seed: 2},
		SkipInitialCV: true,
		MinDuration:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := d.Series.Values[d.Series.Len()-1]
	// A single-point blip must not alarm immediately: with MinDuration 3 the
	// filter withholds judgment on the first anomalous point.
	v1 := mon.Step(base * 0.1)
	if v1.Anomalous {
		t.Errorf("1-point blip alarmed immediately: %+v", v1)
	}
	// A sustained drop must eventually alarm, and the per-step Decided
	// counts must account for every point (minus at most MinDuration-1
	// still pending).
	steps := 1 // the blip
	decided := v1.Decided
	alarmed := false
	for i := 0; i < 6; i++ {
		v := mon.Step(base * 0.1)
		steps++
		decided += v.Decided
		alarmed = alarmed || v.Anomalous
	}
	if !alarmed {
		t.Error("sustained drop never alarmed")
	}
	if decided > steps || decided < steps-2 {
		t.Errorf("decided %d of %d steps (pending may hold at most 2)", decided, steps)
	}
}

// stepAll steps every detector over vals and returns what each reported:
// sev[j][i], ready[j][i].
func stepAll(dets []detectors.Detector, vals []float64) (sev [][]float64, ready [][]bool) {
	sev, ready = make([][]float64, len(dets)), make([][]bool, len(dets))
	for j, d := range dets {
		sev[j], ready[j] = make([]float64, len(vals)), make([]bool, len(vals))
		for i, v := range vals {
			sev[j][i], ready[j][i] = d.Step(v)
		}
	}
	return sev, ready
}

// sameStream reports whether two stepAll outputs of one configuration match
// bit for bit, readiness included.
func sameStream(sevA, sevB []float64, readyA, readyB []bool) bool {
	for i := range sevA {
		if readyA[i] != readyB[i] || math.Float64bits(sevA[i]) != math.Float64bits(sevB[i]) {
			return false
		}
	}
	return true
}

// TestRetrainContinuesStream is the property the deleted in-place retrain
// held by construction: swapping in the monitor Retrain returns never
// disturbs the stream. At random cut points past the 8-week fit cap, the
// replacement's detector set and the live monitor's — every configuration of
// the paper's registry, ARIMA included — produce bit-identical severities
// and readiness over the following 300 points, with and without a feature
// cache. Below the cap there is exactly one exception: a Trainable detector
// is re-fitted on the longer window, so its severities (and only its) move.
func TestRetrainContinuesStream(t *testing.T) {
	const ppw, follow = 168, 300
	full, labels := testKPI(t, 16, 33)
	registry := func() []detectors.Detector {
		ds, err := detectors.Registry(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	boot := func(n int, cache *FeatureCache) *Monitor {
		mon, err := NewMonitor(prefix(full, n), labels[:n], registry(), MonitorConfig{
			Forest:        forest.Config{Trees: 3, Seed: 1},
			SkipInitialCV: true,
			Cache:         cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	// retrainAt retrains mon (whose detectors stand at cut) and reports, per
	// configuration, whether old and new detector sets agree over the next
	// `follow` points. Both sets end at cut+follow.
	retrainAt := func(mon *Monitor, cut int, cache *FeatureCache) (*Monitor, []bool) {
		next, err := mon.Retrain(prefix(full, cut), labels[:cut], nil, registry(), cache)
		if err != nil {
			t.Fatalf("Retrain at %d: %v", cut, err)
		}
		vals := full.Values[cut : cut+follow]
		oldSev, oldReady := stepAll(mon.dets, vals)
		newSev, newReady := stepAll(next.dets, vals)
		same := make([]bool, len(mon.dets))
		for j := range same {
			same[j] = sameStream(oldSev[j], newSev[j], oldReady[j], newReady[j])
		}
		return next, same
	}

	for _, cached := range []bool{false, true} {
		var cache *FeatureCache
		if cached {
			cache = NewFeatureCache(nil)
		}
		rng := rand.New(rand.NewSource(5))
		at := 8*ppw + 1 + rng.Intn(ppw)
		mon := boot(at, cache)
		for rounds := 0; ; rounds++ {
			cut := at + rng.Intn(ppw)
			if cut+follow > full.Len() {
				if rounds < 3 {
					t.Fatalf("only %d retrain rounds fit the series", rounds)
				}
				break
			}
			stepAll(mon.dets, full.Values[at:cut])
			next, same := retrainAt(mon, cut, cache)
			for j, ok := range same {
				if !ok {
					t.Errorf("cached=%v cut=%d: %s diverges from the live stream after Retrain",
						cached, cut, mon.dets[j].Name())
				}
			}
			mon, at = next, cut+follow
		}

		// Below the fit cap: boot on 5 weeks, retrain inside week 7.
		if cached {
			cache = NewFeatureCache(nil)
		}
		at = 5*ppw + 10
		mon = boot(at, cache)
		cut := 6*ppw + 20
		stepAll(mon.dets, full.Values[at:cut])
		_, same := retrainAt(mon, cut, cache)
		for j, ok := range same {
			_, trainable := mon.dets[j].(detectors.Trainable)
			if ok == trainable {
				t.Errorf("cached=%v pre-cap: %s same=%v, want refit to move exactly the Trainable configurations",
					cached, mon.dets[j].Name(), ok)
			}
		}
	}
}
