package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/tree"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
)

// testKPI generates a small hourly KPI with the given weeks for fast tests.
func testKPI(t *testing.T, weeks int, seed int64) (*timeseries.Series, timeseries.Labels) {
	t.Helper()
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = weeks
	d := kpigen.Generate(p, seed)
	return d.Series, d.Labels
}

// smallRegistry returns a cheap subset of configurations for pipeline tests.
func smallRegistry(t testing.TB) []detectors.Detector {
	t.Helper()
	return []detectors.Detector{
		detectors.NewSimpleThreshold(),
		detectors.NewDiff("last-slot", 1),
		detectors.NewEWMA(0.5),
		detectors.NewSimpleMA(20),
		detectors.NewHistoricalAverage(1, 24),
		detectors.NewTSD(1, 168, 24),
		detectors.NewHoltWinters(0.4, 0.2, 0.4, 24),
	}
}

func TestExtractShapesAndWarmUp(t *testing.T) {
	s, _ := testKPI(t, 10, 1)
	ds := smallRegistry(t)
	f, err := Extract(s, ds, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cols) != len(ds) || f.NumPoints() != s.Len() {
		t.Fatalf("shape = %d×%d, want %d×%d", len(f.Cols), f.NumPoints(), len(ds), s.Len())
	}
	// The Diff(last-slot) column must be NaN exactly at point 0.
	col, err := f.ColumnByName("diff(last-slot)")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(col[0]) {
		t.Error("warm-up point should be NaN")
	}
	if math.IsNaN(col[1]) {
		t.Error("post-warm-up point should be a severity")
	}
	// TSD(1w) warm-up spans at least a week.
	tsd, err := f.ColumnByName("tsd(win=1w)")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(tsd[100]) {
		t.Error("TSD should still be warming up at point 100")
	}
	if math.IsNaN(tsd[len(tsd)-1]) {
		t.Error("TSD should be warm at the end")
	}
}

// TestExtractDeterministicAcrossWorkerCounts: extraction runs on GOMAXPROCS
// workers, and one worker or eight extract the same matrix.
func TestExtractDeterministicAcrossWorkerCounts(t *testing.T) {
	s, _ := testKPI(t, 9, 2)
	extract := func(workers int) *Features {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		f, err := Extract(s, smallRegistry(t), ExtractConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := extract(1), extract(8)
	for j := range a.Cols {
		for i := range a.Cols[j] {
			av, bv := a.Cols[j][i], b.Cols[j][i]
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				t.Fatalf("col %d point %d: %v vs %v", j, i, av, bv)
			}
		}
	}
}

func TestExtractRejectsBadInterval(t *testing.T) {
	s := timeseries.New("x", time.Now(), 11*time.Minute)
	if _, err := Extract(s, smallRegistry(t), ExtractConfig{}); err == nil {
		t.Error("want error for non-week-divisible interval")
	}
}

func TestImputedReplacesNaN(t *testing.T) {
	s, _ := testKPI(t, 9, 3)
	f, err := Extract(s, smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cols := f.Imputed(0, f.NumPoints())
	for j := range cols {
		for i, v := range cols[j] {
			if math.IsNaN(v) {
				t.Fatalf("Imputed leaked NaN at col %d point %d", j, i)
			}
		}
	}
	// Slice, by contrast, preserves NaN.
	raw := f.Slice(0, 10)
	if !math.IsNaN(raw[1][0]) {
		t.Error("Slice should preserve NaN")
	}
}

func TestColumnByNameUnknown(t *testing.T) {
	f := &Features{Names: []string{"a"}, Cols: [][]float64{{1}}}
	if _, err := f.ColumnByName("nope"); err == nil {
		t.Error("want error for unknown name")
	}
}

func TestPolicySplits(t *testing.T) {
	const ppw, total = 100, 1500 // 15 weeks
	cases := []struct {
		p                                Policy
		k                                int
		trainLo, trainHi, testLo, testHi int
	}{
		{I1, 0, 0, 800, 800, 900},
		{I1, 3, 0, 1100, 1100, 1200},
		{I4, 0, 0, 800, 800, 1200},
		{R4, 1, 100, 900, 900, 1300},
		{F4, 2, 0, 800, 1000, 1400},
	}
	for _, c := range cases {
		lo, hi, tlo, thi, ok := c.p.Split(c.k, ppw, total)
		if !ok {
			t.Fatalf("%v split %d not ok", c.p, c.k)
		}
		if lo != c.trainLo || hi != c.trainHi || tlo != c.testLo || thi != c.testHi {
			t.Errorf("%v split %d = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				c.p, c.k, lo, hi, tlo, thi, c.trainLo, c.trainHi, c.testLo, c.testHi)
		}
	}
	if _, _, _, _, ok := I4.Split(4, ppw, total); ok {
		t.Error("I4 split 4 should not fit in 15 weeks")
	}
	if got := I1.NumSplits(ppw, total); got != 7 {
		t.Errorf("I1 NumSplits = %d, want 7", got)
	}
	if got := I4.NumSplits(ppw, total); got != 4 {
		t.Errorf("I4 NumSplits = %d, want 4", got)
	}
}

func TestPolicyStrings(t *testing.T) {
	if I1.String() != "I1" || I4.String() != "I4" || R4.String() != "R4" || F4.String() != "F4" {
		t.Error("policy names wrong")
	}
}

func TestSelectCThldMetrics(t *testing.T) {
	// Scores cleanly separate: any reasonable metric finds a good point.
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	truth := []bool{true, true, false, false}
	pref := stats.Preference{Recall: 0.66, Precision: 0.66}
	for _, m := range Metrics() {
		pt := SelectCThld(scores, truth, m, pref)
		if m == DefaultCThld && pt.Threshold != 0.5 {
			t.Errorf("default metric moved the threshold: %v", pt.Threshold)
		}
		if pt.Recall < 0 || pt.Precision < 0 {
			t.Errorf("%v: bad point %+v", m, pt)
		}
	}
	if got := SelectCThld(scores, truth, PCScoreMetric, pref); got.Recall < 0.66 {
		t.Errorf("PC-Score point %+v should satisfy the preference here", got)
	}
}

func TestMetricStrings(t *testing.T) {
	if PCScoreMetric.String() != "pc_score" || Metric(99).String() != "unknown" {
		t.Error("metric names wrong")
	}
}

func TestCThldPredictorEWMAFormula(t *testing.T) {
	p := NewCThldPredictor(0.8)
	if got := p.Predict(); got != 0.5 {
		t.Errorf("unseeded Predict = %v, want 0.5", got)
	}
	p.Seed(0.4)
	if got := p.Predict(); got != 0.4 {
		t.Errorf("after Seed, Predict = %v, want 0.4", got)
	}
	p.Observe(0.9)
	want := 0.8*0.9 + 0.2*0.4
	if got := p.Predict(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Predict = %v, want %v", got, want)
	}
}

func TestCrossValidateCThldOnSeparableData(t *testing.T) {
	// Feature 0 is a perfect score in [0,1]; the CV search should pick a
	// threshold that separates (between the class score levels).
	n := 500
	cols := [][]float64{make([]float64, n)}
	labels := make([]bool, n)
	for i := range labels {
		labels[i] = i%10 == 0
		if labels[i] {
			cols[0][i] = 0.9
		} else {
			cols[0][i] = 0.1
		}
	}
	got := CrossValidateCThld(tree.Presort(cols), labels, 5, 100, forest.Config{Trees: 5, Seed: 1},
		stats.Preference{Recall: 0.66, Precision: 0.66})
	if got <= 0 || got > 1 {
		t.Errorf("cv cThld = %v, want in (0,1]", got)
	}
	r, p := stats.AtThreshold(predictWith(cols, labels, got), labels, got)
	if r < 0.9 || p < 0.9 {
		t.Errorf("cv threshold %v gives (r=%v, p=%v) in-sample", got, r, p)
	}
}

// predictWith trains a forest on all data and returns scores (test helper).
func predictWith(cols [][]float64, labels []bool, thr float64) []float64 {
	f := forest.Train(cols, labels, forest.Config{Trees: 5, Seed: 1})
	return f.ProbAll(cols)
}

func TestCrossValidateCThldTinyData(t *testing.T) {
	got := CrossValidateCThld(tree.Presort([][]float64{{1, 2}}), []bool{true, false}, 5, 10,
		forest.Config{Trees: 3}, stats.Preference{})
	if got != 0.5 {
		t.Errorf("tiny-data CV = %v, want fallback 0.5", got)
	}
}

func TestRunEndToEnd(t *testing.T) {
	s, labels := testKPI(t, 11, 5)
	f, err := Extract(s, smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ppw, _ := s.PointsPerWeek()
	res, err := Run(f, labels, ppw, Config{
		Forest:       forest.Config{Trees: 15, Seed: 3},
		SkipWeeklyCV: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weeks) != 3 { // weeks 8, 9, 10
		t.Fatalf("weeks = %d, want 3", len(res.Weeks))
	}
	for _, w := range res.Weeks {
		if len(w.Scores) != ppw || len(w.Truth) != ppw {
			t.Fatalf("week %d: %d scores, %d truths", w.Week, len(w.Scores), len(w.Truth))
		}
		if w.BestCThld < 0 || w.BestCThld > 1 {
			t.Errorf("week %d: best cThld %v", w.Week, w.BestCThld)
		}
		// The oracle can never lose to the online prediction on PC-Score.
		pref := res.Config.Preference
		bestScore := stats.PCScore(w.Best.Recall(), w.Best.Precision(), pref)
		ewmaScore := stats.PCScore(w.EWMA.Recall(), w.EWMA.Precision(), pref)
		if ewmaScore > bestScore+1e-9 {
			t.Errorf("week %d: EWMA outperformed the oracle (%v > %v)", w.Week, ewmaScore, bestScore)
		}
	}
	// The forest should detect most of the injected anomalies offline.
	if r := res.Weeks[0].Best.Recall(); r < 0.5 {
		t.Errorf("oracle recall in week 8 = %v, want ≥ 0.5", r)
	}
}

func TestRunErrors(t *testing.T) {
	s, labels := testKPI(t, 9, 6)
	f, err := Extract(s, smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ppw, _ := s.PointsPerWeek()
	if _, err := Run(f, labels[:10], ppw, Config{}); err == nil {
		t.Error("want error for label length mismatch")
	}
	if _, err := Run(f, labels, 2*ppw, Config{}); err == nil {
		t.Error("want error when the data spans no more than InitWeeks")
	}
}

func TestMovingWindows(t *testing.T) {
	weeks := []WeekResult{
		{Best: stats.Confusion{TP: 1, FN: 1}},
		{Best: stats.Confusion{TP: 2, FP: 2}},
		{Best: stats.Confusion{TP: 3}},
		{Best: stats.Confusion{FN: 2}},
	}
	ws := MovingWindows(weeks, 2, func(w WeekResult) stats.Confusion { return w.Best })
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	// Window 1: TP=3, FP=2, FN=1 → r=0.75, p=0.6.
	if math.Abs(ws[0].Recall-0.75) > 1e-12 || math.Abs(ws[0].Precision-0.6) > 1e-12 {
		t.Errorf("window 1 = %+v", ws[0])
	}
}

func TestRunPolicyOrdering(t *testing.T) {
	s, labels := testKPI(t, 13, 7)
	f, err := Extract(s, smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ppw, _ := s.PointsPerWeek()
	fcfg := forest.Config{Trees: 15, Seed: 4}
	for _, p := range []Policy{I4, R4, F4} {
		aucs, err := RunPolicy(f, labels, ppw, p, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(aucs) != I4.NumSplits(ppw, f.NumPoints()) {
			t.Fatalf("%v: %d aucs", p, len(aucs))
		}
		for _, a := range aucs {
			if a < 0 || a > 1 {
				t.Fatalf("%v: AUCPR %v out of range", p, a)
			}
		}
	}
}
