package core

import (
	"fmt"
	"math"

	"opprentice/internal/stats"
)

// FeatureScaler normalizes detector severities so that a classifier trained
// on one KPI can detect on other KPIs of the same type but different scale —
// the §6 "detection across the same types of KPIs" extension ("the anomaly
// features extracted by basic detectors should be normalized"). Each
// configuration's severities are divided by a robust per-KPI scale statistic
// (a high quantile of that KPI's own severities), so "3× the typical
// severity" means the same thing on a 10k-QPS ISP and a 50k-QPS one.
type FeatureScaler struct {
	scale []float64
}

// DefaultScaleQuantile is the severity quantile used as the per-
// configuration unit. A high-but-not-extreme quantile tracks the bulk of
// normal severities without being dominated by the anomalies themselves.
const DefaultScaleQuantile = 0.95

// NewFeatureScaler calibrates per-configuration units on column-major
// severities (typically the KPI's own initial training weeks). NaN
// severities are ignored; an all-NaN or all-zero configuration gets unit
// scale.
func NewFeatureScaler(cols [][]float64, quantile float64) *FeatureScaler {
	if quantile <= 0 || quantile >= 1 {
		quantile = DefaultScaleQuantile
	}
	fs := &FeatureScaler{scale: make([]float64, len(cols))}
	for j, col := range cols {
		finite := make([]float64, 0, len(col))
		for _, v := range col {
			if !math.IsNaN(v) {
				finite = append(finite, v)
			}
		}
		s := 0.0
		if len(finite) > 0 {
			s = stats.Quantile(finite, quantile)
		}
		if s <= 0 {
			s = 1
		}
		fs.scale[j] = s
	}
	return fs
}

// Apply returns a normalized copy of the column-major severities: each
// configuration divided by its calibrated unit, NaN imputed to 0.
func (fs *FeatureScaler) Apply(cols [][]float64) [][]float64 {
	if len(cols) != len(fs.scale) {
		panic(fmt.Sprintf("core: scaler calibrated for %d configurations, got %d", len(fs.scale), len(cols)))
	}
	out := make([][]float64, len(cols))
	for j, col := range cols {
		inv := 1 / fs.scale[j]
		dst := make([]float64, len(col))
		for i, v := range col {
			if !math.IsNaN(v) {
				dst[i] = v * inv
			}
		}
		out[j] = dst
	}
	return out
}
