package detectors

import (
	"math"
	"math/rand"
	"testing"
)

// tiny synthetic "day" of 8 points and "week" of 56 for fast seasonal tests.
const (
	tppd = 8
	tppw = 56
)

// seasonalValue is a deterministic daily pattern.
func seasonalValue(t int) float64 {
	return 100 + 10*math.Sin(2*math.Pi*float64(t%tppd)/tppd)
}

func TestHistoricalAverageFlagsDeviation(t *testing.T) {
	d := NewHistoricalAverage(1, tppd)
	rng := rand.New(rand.NewSource(3))
	var normalSev float64
	// Warm up more than 1 week.
	for i := 0; i < 2*tppw; i++ {
		sev, ready := d.Step(seasonalValue(i) + rng.NormFloat64())
		if ready {
			normalSev = sev
		}
	}
	spikeSev, ready := d.Step(seasonalValue(2*tppw) + 50)
	if !ready {
		t.Fatal("should be ready after 2 weeks")
	}
	if spikeSev < 5*math.Max(normalSev, 1) {
		t.Errorf("spike severity %v should dwarf normal %v", spikeSev, normalSev)
	}
}

func TestHistoricalAverageWarmUpIsWinWeeks(t *testing.T) {
	d := NewHistoricalAverage(2, tppd)
	for i := 0; i < 2*tppw; i++ {
		if _, ready := d.Step(1); ready {
			t.Fatalf("ready at point %d, need %d", i, 2*tppw)
		}
	}
	if _, ready := d.Step(1); !ready {
		t.Error("should be ready after 2 weeks")
	}
}

func TestHistoricalMADRobustToOutlierInHistory(t *testing.T) {
	// Poison one historical value; the MAD variant's severity for a normal
	// point should stay small while the mean/std variant's estimate moves.
	mkStream := func(d Detector) float64 {
		for i := 0; i < 3*tppw; i++ {
			v := seasonalValue(i)
			if i == tppw+4 { // one dirty point in history
				v += 1000
			}
			d.Step(v)
		}
		sev, _ := d.Step(seasonalValue(3 * tppw))
		return sev
	}
	madSev := mkStream(NewHistoricalMAD(3, tppd))
	if madSev > 1 {
		t.Errorf("MAD severity for clean point = %v, want ≈ 0", madSev)
	}
}

func TestTSDDetectsWeeklyViolation(t *testing.T) {
	d := NewTSD(2, tppw, tppd)
	var normalSev float64
	for i := 0; i < 4*tppw; i++ {
		sev, ready := d.Step(seasonalValue(i))
		if ready {
			normalSev = sev
		}
	}
	spikeSev, ready := d.Step(seasonalValue(4*tppw) - 40)
	if !ready {
		t.Fatal("not ready after 4 weeks")
	}
	if spikeSev <= normalSev+1 {
		t.Errorf("dip severity %v should exceed normal %v", spikeSev, normalSev)
	}
}

func TestTSDWarmUp(t *testing.T) {
	d := NewTSD(1, tppw, tppd)
	ready := false
	readyAt := -1
	for i := 0; i < 2*tppw && !ready; i++ {
		_, ready = d.Step(1)
		if ready {
			readyAt = i
		}
	}
	// Needs 1 week of phases plus the residual trend window (tppd here).
	if readyAt < tppw || readyAt > tppw+tppd+1 {
		t.Errorf("ready at %d, want within [%d, %d]", readyAt, tppw, tppw+tppd+1)
	}
}

func TestTSDMADRobustness(t *testing.T) {
	// Same-phase dirty data in one past week should barely move the robust
	// variant's severity for a clean point.
	clean := NewTSDMAD(5, tppw, tppd)
	dirty := NewTSDMAD(5, tppw, tppd)
	for i := 0; i < 6*tppw; i++ {
		v := seasonalValue(i)
		clean.Step(v)
		if i == 3*tppw+7 {
			v += 500
		}
		dirty.Step(v)
	}
	next := seasonalValue(6 * tppw)
	sc, _ := clean.Step(next)
	sd, _ := dirty.Step(next)
	if math.Abs(sc-sd) > 1.0 {
		t.Errorf("dirty history changed robust severity too much: clean %v vs dirty %v", sc, sd)
	}
}

func TestSeasonalResets(t *testing.T) {
	ds := []Detector{
		NewHistoricalAverage(1, tppd),
		NewHistoricalMAD(1, tppd),
		NewTSD(1, tppw, tppd),
		NewTSDMAD(1, tppw, tppd),
	}
	for _, d := range ds {
		for i := 0; i < 3*tppw; i++ {
			d.Step(seasonalValue(i))
		}
		d.Reset()
		if _, ready := d.Step(1); ready {
			t.Errorf("%s: ready right after Reset", d.Name())
		}
	}
}

func TestPhaseHistoryPeekExcludesCurrent(t *testing.T) {
	ph := newPhaseHistory(2, 2)
	ph.push(1)     // phase 0
	ph.push(2)     // phase 1
	ph.push(3)     // phase 0
	ph.push(4)     // phase 1
	r := ph.peek() // phase 0 history: {1, 3}
	if r.len() != 2 {
		t.Fatalf("phase ring len = %d, want 2", r.len())
	}
	vals := ringValues(r, nil)
	sum := vals[0] + vals[1]
	if sum != 4 {
		t.Errorf("phase-0 history = %v, want {1,3}", vals)
	}
}

func TestPhaseHistoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	newPhaseHistory(0, 1)
}

func TestSeasonalSeveritiesFinite(t *testing.T) {
	// Constant data must not divide by zero anywhere.
	ds := []Detector{
		NewHistoricalAverage(1, tppd),
		NewHistoricalMAD(1, tppd),
		NewTSD(1, tppw, tppd),
		NewTSDMAD(1, tppw, tppd),
	}
	for _, d := range ds {
		for i := 0; i < 3*tppw; i++ {
			sev, _ := d.Step(7)
			if math.IsNaN(sev) || math.IsInf(sev, 0) {
				t.Fatalf("%s: non-finite severity on constant data", d.Name())
			}
		}
	}
}
