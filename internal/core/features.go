// Package core assembles the Opprentice framework (§4): parallel feature
// extraction by the basic-detector configurations, training-set policies
// (Table 2), random-forest training with incremental weekly retraining,
// cThld configuration by PC-Score, and online cThld prediction by EWMA —
// the full train-and-detect loop of Fig. 3.
package core

import (
	"fmt"
	"math"
	"sort"

	"opprentice/internal/detectors"
	"opprentice/internal/fanout"
	"opprentice/internal/timeseries"
)

// Features is the severity matrix the detectors extract from one series:
// one column per configuration, one row per point. From a cold Extract,
// warm-up points hold NaN ("feature absent") until ImputedFull is called;
// Imputed returns a NaN-free copy of a row range for the learners. From a
// FeatureCache (ExtractIncremental), the columns are NaN-free from the start.
//
// A detector configuration that panics during extraction is sandboxed: its
// column becomes all-NaN ("never ready") and the configuration is listed in
// Degraded, so one faulty configuration cannot take down the whole
// extraction (§6 "dirty data": Opprentice keeps working when some detectors
// are unusable).
type Features struct {
	Names []string
	Cols  [][]float64 // Cols[j][i] = severity of configuration j at point i
	// Degraded lists the configuration names whose extraction panicked and
	// was sandboxed into an all-NaN column.
	Degraded []string

	// imputed marks Cols as already NaN→0: set at birth for a cache-born
	// Features (whose columns alias the FeatureCache's storage), and by the
	// first ImputedFull otherwise.
	imputed bool
}

// ExtractConfig is the options argument of the extraction entry points. It
// has no fields: extraction runs on GOMAXPROCS workers.
type ExtractConfig struct{}

// Extract runs every detector configuration over the series in parallel and
// returns the severity matrix. Detectors are Reset first, and Trainable ones
// are fitted on the leading fitWeeks of data (§4.3.3). A Trainable detector
// whose fit fails simply stays not-ready (all-NaN column): Opprentice is
// explicitly designed to keep working when some detectors are unusable (§6
// "dirty data").
func Extract(s *timeseries.Series, ds []detectors.Detector, cfg ExtractConfig) (*Features, error) {
	fitN, err := fitPoints(s)
	if err != nil {
		return nil, err
	}

	f := &Features{
		Names: detectors.Names(ds),
		Cols:  make([][]float64, len(ds)),
	}
	ok := make([]bool, len(ds))
	fanout.Run(fanout.Workers(len(ds)), len(ds), func(_, j int) {
		f.Cols[j], ok[j] = extractColumn(s, ds[j], fitN)
	})
	for j, name := range f.Names {
		if !ok[j] {
			f.Degraded = append(f.Degraded, name)
		}
	}
	sort.Strings(f.Degraded)
	return f, nil
}

// fitWeeks is how many leading weeks Trainable detectors (ARIMA) see for
// parameter estimation, capped at the series' complete weeks.
const fitWeeks = 8

// fitPoints resolves the Trainable fit window, in points, for an extraction
// over s — shared by Extract and ExtractIncremental so both derive
// bit-identical fit windows.
func fitPoints(s *timeseries.Series) (int, error) {
	ppw, err := s.PointsPerWeek()
	if err != nil {
		return 0, err
	}
	return min(fitWeeks, s.Len()/ppw) * ppw, nil
}

// stepColumn is the one panic sandbox around detector code: every caller
// that runs a configuration over a run of points — training extraction, the
// cache's tail extension, the re-warm of a restored monitor and the online
// StepBatch — does it here and keeps only its own fill policy. With prime set
// the detector is first Reset and, when Trainable and fit is non-empty,
// fitted (best effort: an unfittable detector just stays not-ready). Point
// i's severity — notReady while the detector warms up — is stored at
// dst[i*stride]: stride 1 fills a column, stride d one column of a row-major
// d-wide matrix, stride 0 discards into a one-cell dst. done counts the
// points stepped before a panic (0 when priming panicked) and recovered is
// the panic's value, nil when there was none.
func stepColumn(d detectors.Detector, prime bool, fit, values, dst []float64, stride int, notReady float64) (done int, recovered any) {
	defer func() { recovered = recover() }()
	if prime {
		d.Reset()
		if tr, isTrainable := d.(detectors.Trainable); isTrainable && len(fit) > 0 {
			_ = tr.Fit(fit)
		}
	}
	for _, v := range values {
		sev, ready := d.Step(v)
		if !ready {
			sev = notReady
		}
		dst[done*stride] = sev
		done++
	}
	return done, nil
}

// extractColumn runs one detector over the series from Reset. If it panics
// anywhere (Reset, Fit or Step), the whole column is returned as all-NaN —
// "this configuration was never ready" — and ok is false. The learners
// already impute NaN to "no evidence of anomaly", so a faulty configuration
// degrades to a silent feature rather than a crashed request.
func extractColumn(s *timeseries.Series, d detectors.Detector, fitN int) (col []float64, ok bool) {
	col = make([]float64, s.Len())
	if _, r := stepColumn(d, true, s.Values[:fitN], s.Values, col, 1, math.NaN()); r != nil {
		for i := range col {
			col[i] = math.NaN()
		}
		return col, false
	}
	return col, true
}

// NumPoints returns the number of rows in the matrix.
func (f *Features) NumPoints() int {
	if len(f.Cols) == 0 {
		return 0
	}
	return len(f.Cols[0])
}

// Slice returns a column-major view of rows [lo, hi). The returned slices
// share storage with f.
func (f *Features) Slice(lo, hi int) [][]float64 {
	out := make([][]float64, len(f.Cols))
	for j, col := range f.Cols {
		out[j] = col[lo:hi]
	}
	return out
}

// imputedParallelThreshold is the matrix-cell count above which Imputed
// parallelizes its column work; below it the goroutine overhead dominates.
const imputedParallelThreshold = 1 << 16

// Imputed returns a copy of rows [lo, hi) with NaN severities replaced by 0
// — "no evidence of anomaly" — which is what the learners and the static
// combination baselines consume. Large matrices are imputed column by column
// on fanout workers.
func (f *Features) Imputed(lo, hi int) [][]float64 {
	out := make([][]float64, len(f.Cols))
	workers := fanout.Workers(len(f.Cols))
	if (hi-lo)*len(f.Cols) < imputedParallelThreshold {
		workers = 1
	}
	fanout.Run(workers, len(f.Cols), func(_, j int) {
		dst := make([]float64, hi-lo)
		for i, v := range f.Cols[j][lo:hi] {
			if math.IsNaN(v) {
				dst[i] = 0
			} else {
				dst[i] = v
			}
		}
		out[j] = dst
	})
	return out
}

// ImputedFull returns the full-length NaN→0 matrix without materializing a
// second one: the columns are imputed *in place*, once — destroying the NaN
// warm-up markers of a cold extraction — and Cols itself is returned. Callers
// that still need the markers must copy them first. A cache-born Features is
// imputed from birth and shares storage with its FeatureCache: treat the
// result as read-only.
func (f *Features) ImputedFull() [][]float64 {
	if !f.imputed {
		for _, col := range f.Cols {
			imputeInPlace(col)
		}
		f.imputed = true
	}
	return f.Cols
}

// imputeInPlace replaces NaN with 0 ("no evidence of anomaly") in col.
func imputeInPlace(col []float64) {
	for i, v := range col {
		if math.IsNaN(v) {
			col[i] = 0
		}
	}
}

// ColumnByName returns the severity column with the given configuration
// name.
func (f *Features) ColumnByName(name string) ([]float64, error) {
	for j, n := range f.Names {
		if n == name {
			return f.Cols[j], nil
		}
	}
	return nil, fmt.Errorf("core: no configuration named %q", name)
}
