package labelsim

import (
	"testing"

	"opprentice/internal/timeseries"
)

func mkTruth(n int, windows ...timeseries.Window) timeseries.Labels {
	return timeseries.FromWindows(n, windows)
}

func TestLabelPreservesWindowCountRoughly(t *testing.T) {
	truth := mkTruth(1000,
		timeseries.Window{Start: 100, End: 120},
		timeseries.Window{Start: 300, End: 330},
		timeseries.Window{Start: 600, End: 650},
	)
	op := Operator{BoundaryJitter: 2, Seed: 42}
	labeled := op.Label(truth)
	if got := len(labeled.Windows()); got != 3 {
		t.Errorf("labeled windows = %d, want 3", got)
	}
	// Long windows overlap heavily with the truth.
	overlap := 0
	for i := range truth {
		if truth[i] && labeled[i] {
			overlap++
		}
	}
	if float64(overlap) < 0.8*float64(truth.Count()) {
		t.Errorf("overlap = %d of %d anomalous points", overlap, truth.Count())
	}
}

func TestLabelJitterMovesBoundaries(t *testing.T) {
	truth := mkTruth(500, timeseries.Window{Start: 200, End: 260})
	moved := false
	for seed := int64(0); seed < 10 && !moved; seed++ {
		op := Operator{BoundaryJitter: 3, Seed: seed}
		w := op.Label(truth).Windows()
		if len(w) == 1 && (w[0].Start != 200 || w[0].End != 260) {
			moved = true
		}
	}
	if !moved {
		t.Error("jitter never moved a boundary in 10 seeds")
	}
}

func TestLabelMissesShortWindows(t *testing.T) {
	var windows []timeseries.Window
	for i := 0; i < 100; i++ {
		windows = append(windows, timeseries.Window{Start: i * 10, End: i*10 + 1})
	}
	truth := mkTruth(1001, windows...)
	op := Operator{MissBelow: 3, MissProb: 0.5, Seed: 7}
	labeled := op.Label(truth)
	got := len(labeled.Windows())
	if got < 25 || got > 75 {
		t.Errorf("kept %d of 100 short windows, want ≈ 50", got)
	}
}

func TestLabelZeroNoiseIsIdentity(t *testing.T) {
	truth := mkTruth(300, timeseries.Window{Start: 10, End: 30}, timeseries.Window{Start: 200, End: 210})
	labeled := Operator{Seed: 1}.Label(truth)
	for i := range truth {
		if truth[i] != labeled[i] {
			t.Fatalf("zero-noise operator changed label at %d", i)
		}
	}
}

func TestLabelNeverProducesEmptyWindowFromKept(t *testing.T) {
	truth := mkTruth(100, timeseries.Window{Start: 50, End: 52})
	op := Operator{BoundaryJitter: 5, Seed: 3}
	labeled := op.Label(truth)
	if len(labeled.Windows()) == 0 {
		t.Error("kept window vanished after jitter")
	}
}

func TestTimeModelAffine(t *testing.T) {
	m := TimeModel{BaseMinutes: 1, MinutesPerWindow: 0.2}
	if got := m.MonthMinutes(0); got != 1 {
		t.Errorf("MonthMinutes(0) = %v, want 1", got)
	}
	if got := m.MonthMinutes(25); got != 6 {
		t.Errorf("MonthMinutes(25) = %v, want 6", got)
	}
}

func TestDefaultTimeModelUnderSixMinutes(t *testing.T) {
	// Fig. 14: typical months (≤ 25 windows) stay under 6 minutes.
	m := DefaultTimeModel()
	if got := m.MonthMinutes(24); got > 6 {
		t.Errorf("24-window month = %v minutes, want ≤ 6", got)
	}
}

func TestMonthsSplitsAndCounts(t *testing.T) {
	ppw := 100 // 400 points per month
	truth := mkTruth(1200,
		timeseries.Window{Start: 10, End: 20},     // month 1
		timeseries.Window{Start: 350, End: 420},   // starts in month 1
		timeseries.Window{Start: 500, End: 520},   // month 2
		timeseries.Window{Start: 900, End: 910},   // month 3
		timeseries.Window{Start: 1100, End: 1110}, // month 3
	)
	m := DefaultTimeModel()
	months := m.Months(truth, ppw)
	if len(months) != 3 {
		t.Fatalf("months = %d, want 3", len(months))
	}
	wantWindows := []int{2, 1, 2}
	for i, ms := range months {
		if ms.Windows != wantWindows[i] {
			t.Errorf("month %d windows = %d, want %d", ms.Month, ms.Windows, wantWindows[i])
		}
		if ms.Minutes != m.MonthMinutes(ms.Windows) {
			t.Errorf("month %d minutes inconsistent", ms.Month)
		}
	}
	total := m.TotalMinutes(truth, ppw)
	want := months[0].Minutes + months[1].Minutes + months[2].Minutes
	if total != want {
		t.Errorf("TotalMinutes = %v, want %v", total, want)
	}
}

func TestMonthsDegenerate(t *testing.T) {
	if got := DefaultTimeModel().Months(nil, 0); got != nil {
		t.Errorf("Months with ppw=0 = %v, want nil", got)
	}
}

// TestQueryOracleChargesPerWindowNotPerPoint is the Fig. 14 property: the
// modeled cost of answering queries depends only on sittings and answered
// windows, never on how many points those windows span. Two oracles
// answering the same number of windows — one with 1-point windows, one with
// 500-point windows — must spend the identical number of minutes.
func TestQueryOracleChargesPerWindowNotPerPoint(t *testing.T) {
	truth := mkTruth(10000, timeseries.Window{Start: 0, End: 10000})
	model := TimeModel{BaseMinutes: 1, MinutesPerWindow: 0.2}
	widths := []int{1, 7, 500}
	var spends []float64
	for _, width := range widths {
		o := NewQueryOracle(truth, model, 0, 1)
		if !o.BeginSitting() {
			t.Fatal("BeginSitting refused with unlimited budget")
		}
		for i := 0; i < 12; i++ {
			start := i * width
			if _, ok := o.Answer(start, start+width); !ok {
				t.Fatalf("width %d answer %d refused", width, i)
			}
		}
		spends = append(spends, o.SpentMinutes())
	}
	want := model.BaseMinutes + 12*model.MinutesPerWindow
	for i, s := range spends {
		if diff := s - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("width %d: spent %v minutes, want %v (cost must not depend on points)", widths[i], s, want)
		}
	}
}

func TestQueryOracleBudgetRefusal(t *testing.T) {
	truth := mkTruth(100, timeseries.Window{Start: 10, End: 20})
	model := TimeModel{BaseMinutes: 1, MinutesPerWindow: 0.2}
	// Budget covers the base plus exactly two answers.
	o := NewQueryOracle(truth, model, 1.4, 1)
	if !o.BeginSitting() {
		t.Fatal("BeginSitting refused")
	}
	for i := 0; i < 2; i++ {
		if _, ok := o.Answer(i*10, i*10+5); !ok {
			t.Fatalf("answer %d refused within budget", i)
		}
	}
	if _, ok := o.Answer(50, 55); ok {
		t.Error("answer beyond budget accepted")
	}
	if got := o.answered; got != 2 {
		t.Errorf("answered = %d, want 2", got)
	}
	// A fresh sitting cannot open either: base + one answer exceeds what is
	// left.
	o.EndSitting()
	if o.BeginSitting() {
		t.Error("sitting opened with exhausted budget")
	}
	// Answers without an open sitting are refused and never charged.
	spent := o.SpentMinutes()
	if _, ok := o.Answer(10, 12); ok {
		t.Error("answer without sitting accepted")
	}
	if o.SpentMinutes() != spent {
		t.Error("refused answer was charged")
	}
}

func TestQueryOracleAnswersFromTruth(t *testing.T) {
	truth := mkTruth(200, timeseries.Window{Start: 50, End: 60})
	o := NewQueryOracle(truth, DefaultTimeModel(), 0, 1)
	o.BeginSitting()
	if anom, ok := o.Answer(55, 58); !ok || !anom {
		t.Errorf("overlapping window: anomalous=%v ok=%v, want true,true", anom, ok)
	}
	if anom, ok := o.Answer(100, 110); !ok || anom {
		t.Errorf("normal window: anomalous=%v ok=%v, want false,true", anom, ok)
	}
	// Out-of-range indices are tolerated (the queue may outlive a truncation).
	if anom, ok := o.Answer(190, 300); !ok || anom {
		t.Errorf("clipped window: anomalous=%v ok=%v, want false,true", anom, ok)
	}
}

// TestQueryOracleDeterministic: identical seeds and call sequences produce
// identical answers and identical spend, even with misses enabled.
func TestQueryOracleDeterministic(t *testing.T) {
	var windows []timeseries.Window
	for i := 0; i < 50; i++ {
		windows = append(windows, timeseries.Window{Start: i * 20, End: i*20 + 3})
	}
	truth := mkTruth(1000, windows...)
	run := func() ([]bool, float64) {
		o := NewQueryOracle(truth, DefaultTimeModel(), 0, 42)
		o.Miss = 0.3
		o.BeginSitting()
		var answers []bool
		for i := 0; i < 50; i++ {
			anom, ok := o.Answer(i*20, i*20+3)
			if !ok {
				t.Fatalf("answer %d refused", i)
			}
			answers = append(answers, anom)
		}
		return answers, o.SpentMinutes()
	}
	a1, s1 := run()
	a2, s2 := run()
	if s1 != s2 {
		t.Errorf("spend differs across identical runs: %v vs %v", s1, s2)
	}
	missed := 0
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("answer %d differs across identical runs", i)
		}
		if !a1[i] {
			missed++
		}
	}
	if missed == 0 || missed == 50 {
		t.Errorf("missed %d of 50 with Miss=0.3, want some but not all", missed)
	}
}
