package core

import (
	"math"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
	"opprentice/internal/stats"
)

func TestFeatureScalerUnits(t *testing.T) {
	cols := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	}
	fs := NewFeatureScaler(cols, 0.95)
	// Column 2 is 10× column 1: after normalization they must coincide.
	norm := fs.Apply(cols)
	for i := range norm[0] {
		if math.Abs(norm[0][i]-norm[1][i]) > 1e-12 {
			t.Fatalf("normalized columns diverge at %d: %v vs %v", i, norm[0][i], norm[1][i])
		}
	}
	if math.Abs(fs.scale[1]-10*fs.scale[0]) > 1e-9 {
		t.Errorf("scales = %v, %v; want 10× ratio", fs.scale[0], fs.scale[1])
	}
}

func TestFeatureScalerDegenerateColumns(t *testing.T) {
	cols := [][]float64{
		{math.NaN(), math.NaN()},
		{0, 0},
	}
	fs := NewFeatureScaler(cols, 0.95)
	norm := fs.Apply(cols)
	for j := range norm {
		for i, v := range norm[j] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("col %d point %d: %v", j, i, v)
			}
		}
	}
}

func TestFeatureScalerPanicsOnShape(t *testing.T) {
	fs := NewFeatureScaler([][]float64{{1}}, 0.95)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	fs.Apply([][]float64{{1}, {2}})
}

// The §6 transfer claim: a forest trained on one KPI detects on a same-type
// KPI at a different scale, provided features are normalized — and
// normalization is what makes the difference.
func TestTransferAcrossScalesNeedsNormalization(t *testing.T) {
	mk := func(base float64, seed int64) (*Features, []bool, int) {
		p := kpigen.PV(kpigen.Small)
		p.Interval = time.Hour
		p.Weeks = 10
		p.Base = base
		d := kpigen.Generate(p, seed)
		f, err := Extract(d.Series, smallRegistry(t), ExtractConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ppw, _ := d.Series.PointsPerWeek()
		return f, d.Labels, ppw
	}
	srcF, srcLabels, ppw := mk(10000, 31) // ISP A
	dstF, dstLabels, _ := mk(500, 32)     // ISP B: 20× smaller volume

	trainHi := InitWeeks * ppw
	testLo := trainHi
	n := dstF.NumPoints()

	// Normalized transfer: calibrate each KPI on its own training weeks.
	srcScaler := NewFeatureScaler(srcF.Slice(0, trainHi), DefaultScaleQuantile)
	dstScaler := NewFeatureScaler(dstF.Slice(0, trainHi), DefaultScaleQuantile)
	model := forest.Train(srcScaler.Apply(srcF.Slice(0, trainHi)), srcLabels[:trainHi],
		forest.Config{Trees: 20, Seed: 1})
	aucNorm := stats.AUCPR(model.ProbAll(dstScaler.Apply(dstF.Slice(testLo, n))), dstLabels[testLo:n])

	// Raw transfer: same forest trained on raw severities.
	rawModel := forest.Train(srcF.Imputed(0, trainHi), srcLabels[:trainHi],
		forest.Config{Trees: 20, Seed: 1})
	aucRaw := stats.AUCPR(rawModel.ProbAll(dstF.Imputed(testLo, n)), dstLabels[testLo:n])

	if aucNorm < 0.5 {
		t.Errorf("normalized transfer AUCPR = %v, want usable (≥ 0.5)", aucNorm)
	}
	if aucNorm <= aucRaw {
		t.Errorf("normalization should help transfer: normalized %v vs raw %v", aucNorm, aucRaw)
	}
}
