package detectors

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"opprentice/internal/linalg"
	"opprentice/internal/wavelet"
)

func TestHoltWintersLearnsSeasonalPattern(t *testing.T) {
	d := NewHoltWinters(0.4, 0.2, 0.4, tppd)
	var lastSev float64
	var ready bool
	for i := 0; i < 6*tppd; i++ {
		lastSev, ready = d.Step(seasonalValue(i))
	}
	if !ready {
		t.Fatal("should be ready after 6 periods")
	}
	if lastSev > 2 {
		t.Errorf("severity on learned pattern = %v, want small", lastSev)
	}
	spike, _ := d.Step(seasonalValue(6*tppd) + 60)
	if spike < 30 {
		t.Errorf("spike severity = %v, want ≈ 60", spike)
	}
}

func TestHoltWintersReadyAfterTwoPeriods(t *testing.T) {
	d := NewHoltWinters(0.2, 0.2, 0.2, 4)
	readyAt := -1
	for i := 0; i < 20 && readyAt < 0; i++ {
		if _, ready := d.Step(float64(i % 4)); ready {
			readyAt = i
		}
	}
	if readyAt != 8 {
		t.Errorf("ready at point %d, want 8 (two periods)", readyAt)
	}
}

func TestHoltWintersPanics(t *testing.T) {
	cases := []func(){
		func() { NewHoltWinters(1.5, 0.2, 0.2, 4) },
		func() { NewHoltWinters(0.2, 0.2, 0.2, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHoltWintersReset(t *testing.T) {
	d := NewHoltWinters(0.2, 0.2, 0.2, 4)
	for i := 0; i < 30; i++ {
		d.Step(float64(i))
	}
	d.Reset()
	if _, ready := d.Step(1); ready {
		t.Error("ready after Reset")
	}
}

func TestSVDWarmUpAndSpike(t *testing.T) {
	d := NewSVD(10, 3)
	rng := rand.New(rand.NewSource(5))
	var normal float64
	for i := 0; i < 29; i++ {
		if _, ready := d.Step(rng.NormFloat64()); ready {
			t.Fatalf("ready at point %d, need 30", i)
		}
	}
	for i := 0; i < 100; i++ {
		normal, _ = d.Step(math.Sin(float64(i)/5) + 0.01*rng.NormFloat64())
	}
	spike, ready := d.Step(25)
	if !ready {
		t.Fatal("not ready")
	}
	if spike < 10*math.Max(normal, 0.1) {
		t.Errorf("spike severity %v should dwarf normal %v", spike, normal)
	}
}

// The power-iteration subspace must match the full Jacobi SVD's dominant
// left singular vector: projecting the test vector onto either must give the
// same residual.
func TestSVDMatchesJacobiRank1(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows, cols := 10, 3
	d := NewSVD(rows, cols)
	n := rows * cols
	var stream []float64
	var got float64
	for i := 0; i < n+37; i++ {
		v := math.Sin(float64(i)/3) + rng.NormFloat64()*0.1
		stream = append(stream, v)
		got, _ = d.Step(v)
	}
	// At the final Step, history excludes the last point.
	hist := stream[len(stream)-1-n : len(stream)-1]
	test := stream[len(stream)-rows:]
	m := linalg.NewMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			m.Set(i, j, hist[j*rows+i])
		}
	}
	svd, err := linalg.ComputeSVD(m)
	if err != nil {
		t.Fatal(err)
	}
	// Project the test vector onto u1 and take the last-element residual.
	dot := 0.0
	for i := 0; i < rows; i++ {
		dot += svd.U.At(i, 0) * test[i]
	}
	want := math.Abs(test[rows-1] - dot*svd.U.At(rows-1, 0))
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("power-iteration residual %v vs Jacobi %v", got, want)
	}
}

func TestSVDZeroWindow(t *testing.T) {
	d := NewSVD(5, 3)
	var sev float64
	var ready bool
	for i := 0; i < 20; i++ {
		sev, ready = d.Step(0)
	}
	if !ready || sev != 0 {
		t.Errorf("zero window: sev=%v ready=%v", sev, ready)
	}
}

func TestSVDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewSVD(1, 3)
}

func TestWaveletHighBandCatchesJitter(t *testing.T) {
	d := NewWavelet(1, wavelet.High, 64)
	rng := rand.New(rand.NewSource(9))
	var normal float64
	for i := 0; i < 400; i++ {
		normal, _ = d.Step(10 + 0.1*rng.NormFloat64())
	}
	spike, ready := d.Step(30)
	if !ready {
		t.Fatal("not ready after 400 points")
	}
	if spike < 3*math.Max(normal, 1) {
		t.Errorf("jitter severity %v should exceed normal %v", spike, normal)
	}
}

func TestWaveletLowBandCatchesLevelShift(t *testing.T) {
	low := NewWavelet(1, wavelet.Low, 64)
	for i := 0; i < 600; i++ {
		low.Step(10)
	}
	// Sustained shift: the low band should spike while the shift propagates
	// to the coarse scales (the detector then adapts, so take the max).
	maxSev := 0.0
	for i := 0; i < 40; i++ {
		sev, _ := low.Step(20)
		if sev > maxSev {
			maxSev = sev
		}
	}
	if maxSev < 10 {
		t.Errorf("max low-band severity after sustained shift = %v, want large", maxSev)
	}
}

func TestWaveletNamesAndReset(t *testing.T) {
	d := NewWavelet(3, wavelet.Mid, 16)
	if d.Name() != "wavelet(win=3d,freq=mid)" {
		t.Errorf("Name = %q", d.Name())
	}
	for i := 0; i < 300; i++ {
		d.Step(float64(i % 7))
	}
	d.Reset()
	if _, ready := d.Step(1); ready {
		t.Error("ready after Reset")
	}
}

func TestWaveletPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewWavelet(0, wavelet.Low, 16)
}

func TestARIMADetectorLifecycle(t *testing.T) {
	d := NewARIMA(2, 1, 2)
	if _, ready := d.Step(1); ready {
		t.Error("untrained ARIMA should not be ready")
	}
	rng := rand.New(rand.NewSource(4))
	hist := make([]float64, 600)
	for i := 1; i < len(hist); i++ {
		hist[i] = 0.7*hist[i-1] + rng.NormFloat64()
	}
	if err := d.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if d.model == nil {
		t.Fatal("Model should be set after Fit")
	}
	var normal float64
	x := hist[len(hist)-1]
	for i := 0; i < 100; i++ {
		x = 0.7*x + rng.NormFloat64()
		normal, _ = d.Step(x)
	}
	spike, ready := d.Step(x + 40)
	if !ready {
		t.Fatal("not ready after Fit")
	}
	if spike < 5*math.Max(normal, 1) {
		t.Errorf("spike severity %v should exceed normal %v", spike, normal)
	}
}

func TestARIMAFitTooShort(t *testing.T) {
	d := NewARIMA(2, 1, 2)
	if err := d.Fit([]float64{1, 2, 3}); err == nil {
		t.Error("want error on tiny history")
	}
}

func TestRegistryBuilds133(t *testing.T) {
	ds, err := Registry(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != NumConfigurations {
		t.Fatalf("registry size = %d, want %d", len(ds), NumConfigurations)
	}
	seen := make(map[string]bool, len(ds))
	for _, d := range ds {
		if seen[d.Name()] {
			t.Errorf("duplicate configuration name %q", d.Name())
		}
		seen[d.Name()] = true
	}
}

func TestRegistryMatchesTable3(t *testing.T) {
	total := 0
	for _, spec := range Table3() {
		total += spec.Configs
	}
	if total != NumConfigurations {
		t.Errorf("Table 3 totals %d configurations, want %d", total, NumConfigurations)
	}
	if len(Table3()) != 14 {
		t.Errorf("Table 3 lists %d detectors, want 14", len(Table3()))
	}
}

func TestRegistryRejectsBadInterval(t *testing.T) {
	if _, err := Registry(7 * time.Minute); err == nil {
		t.Error("7-minute interval should be rejected")
	}
	if _, err := Registry(0); err == nil {
		t.Error("zero interval should be rejected")
	}
}

func TestNames(t *testing.T) {
	ds := []Detector{NewSimpleThreshold(), NewEWMA(0.5)}
	names := Names(ds)
	if names[0] != "simple_threshold" || names[1] != "ewma(alpha=0.5)" {
		t.Errorf("Names = %v", names)
	}
}

// Every registry detector must keep severities finite and non-negative on a
// realistic noisy seasonal stream — the invariant the feature matrix relies
// on.
func TestAllConfigurationsFiniteSeverities(t *testing.T) {
	ds, err := Registry(time.Hour) // coarse interval keeps the test fast
	if err != nil {
		t.Fatal(err)
	}
	ppd := 24
	rng := rand.New(rand.NewSource(12))
	hist := make([]float64, 21*24) // 3 weeks hourly for the ARIMA fit
	for i := range hist {
		hist[i] = 100 + 20*math.Sin(2*math.Pi*float64(i%ppd)/float64(ppd)) + rng.NormFloat64()
	}
	for _, d := range ds {
		if tr, ok := d.(Trainable); ok {
			if err := tr.Fit(hist); err != nil {
				t.Fatalf("%s: Fit: %v", d.Name(), err)
			}
		}
	}
	for i := 0; i < 21*24; i++ {
		v := 100 + 20*math.Sin(2*math.Pi*float64(i%ppd)/float64(ppd)) + rng.NormFloat64()
		if i%100 == 17 {
			v *= 1.8 // occasional spike
		}
		for _, d := range ds {
			sev, _ := d.Step(v)
			if sev < 0 || math.IsNaN(sev) || math.IsInf(sev, 0) {
				t.Fatalf("%s: severity %v at point %d", d.Name(), sev, i)
			}
		}
	}
}
