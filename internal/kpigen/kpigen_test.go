package kpigen

import (
	"math"
	"testing"
	"time"

	"opprentice/internal/timeseries"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(PV(Small), 1)
	b := Generate(PV(Small), 1)
	if a.Series.Len() != b.Series.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Series.Values {
		if a.Series.Values[i] != b.Series.Values[i] {
			t.Fatalf("values diverge at %d", i)
		}
	}
	c := Generate(PV(Small), 2)
	same := true
	for i := range a.Series.Values {
		if a.Series.Values[i] != c.Series.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestGenerateLengthAndAlignment(t *testing.T) {
	for _, p := range Profiles(Small) {
		d := Generate(p, 3)
		ppw, err := d.Series.PointsPerWeek()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got, want := d.Series.Len(), p.Weeks*ppw; got != want {
			t.Errorf("%s: len = %d, want %d", p.Name, got, want)
		}
		if len(d.Labels) != d.Series.Len() {
			t.Errorf("%s: labels/series length mismatch", p.Name)
		}
		if d.Series.Start.Weekday() != time.Monday {
			t.Errorf("%s: series should start on Monday", p.Name)
		}
	}
}

func TestAnomalyRatesNearTargets(t *testing.T) {
	for _, p := range Profiles(Medium) {
		d := Generate(p, 7)
		got := d.Labels.Fraction()
		if math.Abs(got-p.AnomalyRate) > 0.25*p.AnomalyRate+0.002 {
			t.Errorf("%s: anomaly fraction %v, want ≈ %v", p.Name, got, p.AnomalyRate)
		}
	}
}

func TestDispersionMatchesTable1(t *testing.T) {
	// Table 1: Cv(PV) ≈ 0.48, Cv(#SR) ≈ 2.1, Cv(SRT) ≈ 0.07.
	// The synthetic KPIs must land in the same dispersion regimes.
	pv := Generate(PV(Medium), 11)
	sr := Generate(SR(Medium), 11)
	srt := Generate(SRT(Medium), 11)
	if cv := pv.Series.Cv(); cv < 0.3 || cv > 0.7 {
		t.Errorf("PV Cv = %v, want ≈ 0.48", cv)
	}
	if cv := sr.Series.Cv(); cv < 1.2 || cv > 3.5 {
		t.Errorf("#SR Cv = %v, want ≈ 2.1", cv)
	}
	if cv := srt.Series.Cv(); cv < 0.03 || cv > 0.15 {
		t.Errorf("SRT Cv = %v, want ≈ 0.07", cv)
	}
	// And the ordering must hold strictly.
	if !(sr.Series.Cv() > pv.Series.Cv() && pv.Series.Cv() > srt.Series.Cv()) {
		t.Error("Cv ordering #SR > PV > SRT violated")
	}
}

func TestSeasonalityOrdering(t *testing.T) {
	// Table 1: PV strong, SRT moderate, #SR weak.
	pv := SeasonalStrength(Generate(PV(Medium), 5).Series)
	sr := SeasonalStrength(Generate(SR(Medium), 5).Series)
	srt := SeasonalStrength(Generate(SRT(Medium), 5).Series)
	if !(pv > srt && srt > sr) {
		t.Errorf("seasonal strength ordering violated: pv=%v srt=%v sr=%v", pv, srt, sr)
	}
	if pv < 0.5 {
		t.Errorf("PV seasonal strength = %v, want strong (> 0.5)", pv)
	}
	if sr > 0.4 {
		t.Errorf("#SR seasonal strength = %v, want weak (< 0.4)", sr)
	}
}

func TestSeasonalStrengthDegenerate(t *testing.T) {
	s := timeseries.New("x", genesis, 7*time.Minute) // doesn't divide a day
	for i := 0; i < 100; i++ {
		s.Append(1)
	}
	if got := SeasonalStrength(s); got != 0 {
		t.Errorf("non-divisible interval strength = %v, want 0", got)
	}
	flat := timeseries.New("flat", genesis, time.Hour)
	for i := 0; i < 72; i++ {
		flat.Append(5)
	}
	if got := SeasonalStrength(flat); got != 0 {
		t.Errorf("constant series strength = %v, want 0", got)
	}
}

func TestAnomalyWindowsMatchLabels(t *testing.T) {
	d := Generate(PV(Small), 9)
	rebuilt := make(timeseries.Labels, d.Series.Len())
	for _, a := range d.Anomalies {
		if a.Window.Start < 0 || a.Window.End > d.Series.Len() || a.Window.Len() < 1 {
			t.Fatalf("bad window %+v", a.Window)
		}
		for i := a.Window.Start; i < a.Window.End; i++ {
			if rebuilt[i] {
				t.Fatalf("overlapping anomaly windows at %d", i)
			}
			rebuilt[i] = true
		}
	}
	for i := range rebuilt {
		if rebuilt[i] != d.Labels[i] {
			t.Fatalf("labels and windows disagree at %d", i)
		}
	}
}

func TestValuesNonNegative(t *testing.T) {
	for _, p := range Profiles(Small) {
		d := Generate(p, 13)
		for i, v := range d.Series.Values {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: bad value %v at %d", p.Name, v, i)
			}
		}
	}
}

func TestVolumeAnomaliesMostlyBelowBaseline(t *testing.T) {
	// PV anomalies are drops: the mean of anomalous points should sit well
	// below the mean of normal points.
	d := Generate(PV(Medium), 17)
	var anomSum, normSum float64
	var anomN, normN int
	for i, v := range d.Series.Values {
		if d.Labels[i] {
			anomSum += v
			anomN++
		} else {
			normSum += v
			normN++
		}
	}
	if anomN == 0 {
		t.Fatal("no anomalies generated")
	}
	if anomSum/float64(anomN) >= 0.95*normSum/float64(normN) {
		t.Errorf("PV anomalous mean %v should sit below normal mean %v",
			anomSum/float64(anomN), normSum/float64(normN))
	}
}

func TestCountAnomaliesExtremeHigh(t *testing.T) {
	// #SR anomalies are extreme values: the anomalous mean should be far
	// above the normal mean — this is what makes simple threshold the best
	// basic detector for #SR in Fig. 9(b).
	d := Generate(SR(Medium), 19)
	var anomSum, normSum float64
	var anomN, normN int
	for i, v := range d.Series.Values {
		if d.Labels[i] {
			anomSum += v
			anomN++
		} else {
			normSum += v
			normN++
		}
	}
	if anomN == 0 {
		t.Fatal("no anomalies generated")
	}
	if anomSum/float64(anomN) < 3*normSum/float64(normN) {
		t.Errorf("#SR anomalous mean %v should dwarf normal mean %v",
			anomSum/float64(anomN), normSum/float64(normN))
	}
}

func TestKindAndScaleStrings(t *testing.T) {
	if Volume.String() != "volume" || Count.String() != "count" || Latency.String() != "latency" {
		t.Error("kind names wrong")
	}
	if Small.String() != "small" || Medium.String() != "medium" || Full.String() != "full" {
		t.Error("scale names wrong")
	}
	if SuddenDrop.String() != "sudden_drop" || Jitter.String() != "jitter" {
		t.Error("anomaly names wrong")
	}
}

func TestFullScaleProfilesMatchTable1(t *testing.T) {
	pv, sr, srt := PV(Full), SR(Full), SRT(Full)
	if pv.Interval != time.Minute || pv.Weeks != 25 {
		t.Errorf("PV full = %v/%d weeks, want 1m/25", pv.Interval, pv.Weeks)
	}
	if sr.Interval != time.Minute || sr.Weeks != 19 {
		t.Errorf("SR full = %v/%d weeks, want 1m/19", sr.Interval, sr.Weeks)
	}
	if srt.Interval != time.Hour || srt.Weeks != 16 {
		t.Errorf("SRT full = %v/%d weeks, want 60m/16", srt.Interval, srt.Weeks)
	}
}

func TestMissingRateInjection(t *testing.T) {
	p := PV(Small)
	p.MissingRate = 0.05
	d := Generate(p, 31)
	if d.Series.Missing == nil {
		t.Fatal("missing mask not created")
	}
	missing := 0
	for i := 1; i < d.Series.Len(); i++ {
		if d.Series.Missing[i] {
			missing++
			if d.Series.Values[i] != d.Series.Values[i-1] {
				t.Fatalf("missing point %d not carried forward", i)
			}
		}
	}
	frac := float64(missing) / float64(d.Series.Len())
	if frac < 0.03 || frac > 0.08 {
		t.Errorf("missing fraction = %v, want ≈ 0.05", frac)
	}
	if d.Series.Missing[0] {
		t.Error("first point can never be missing (nothing to carry forward)")
	}
}

func TestZeroMissingRateNoMask(t *testing.T) {
	d := Generate(PV(Small), 32)
	if d.Series.Missing != nil {
		t.Error("mask should stay nil at MissingRate 0")
	}
}

func TestNovelFromWeekGatesJitter(t *testing.T) {
	p := PV(Small)
	p.NovelFromWeek = 8
	d := Generate(p, 41)
	ppw, _ := d.Series.PointsPerWeek()
	var before, after int
	for _, a := range d.Anomalies {
		if a.Type != Jitter {
			continue
		}
		if a.Window.Start/ppw < p.NovelFromWeek {
			before++
		} else {
			after++
		}
	}
	if before != 0 {
		t.Errorf("%d jitter anomalies before the switch-over week", before)
	}
	if after == 0 {
		t.Error("no jitter anomalies after the switch-over week")
	}
}
