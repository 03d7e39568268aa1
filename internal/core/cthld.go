package core

import (
	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/tree"
	"opprentice/internal/stats"
)

// Metric identifies a cThld-selection metric of §4.5.1 / Fig. 12.
type Metric int

// The four compared metrics.
const (
	// DefaultCThld always uses 0.5 — the random-forest default.
	DefaultCThld Metric = iota
	// FScoreMetric maximizes the F-Score.
	FScoreMetric
	// SD11Metric minimizes the distance to perfect (1, 1).
	SD11Metric
	// PCScoreMetric maximizes the paper's preference-centric score.
	PCScoreMetric
)

// String names the metric as Fig. 12 labels it.
func (m Metric) String() string {
	switch m {
	case DefaultCThld:
		return "default_cthld"
	case FScoreMetric:
		return "f_score"
	case SD11Metric:
		return "sd(1,1)"
	case PCScoreMetric:
		return "pc_score"
	default:
		return "unknown"
	}
}

// Metrics lists all four in Fig. 12's order.
func Metrics() []Metric {
	return []Metric{PCScoreMetric, FScoreMetric, DefaultCThld, SD11Metric}
}

// SelectCThld picks the cThld for scored data under the metric, returning
// the operating point it expects. The preference only matters for
// PCScoreMetric.
func SelectCThld(scores []float64, truth []bool, m Metric, pref stats.Preference) stats.PRPoint {
	switch m {
	case DefaultCThld:
		r, p := stats.AtThreshold(scores, truth, 0.5)
		return stats.PRPoint{Threshold: 0.5, Recall: r, Precision: p}
	case FScoreMetric:
		return stats.BestByFScore(stats.PRCurve(scores, truth))
	case SD11Metric:
		return stats.BestBySD11(stats.PRCurve(scores, truth))
	default:
		best, _ := stats.BestByPCScore(stats.PRCurve(scores, truth), pref)
		return best
	}
}

// cThldCandidates returns the candidate grid of §4.5.2: numCandidates+1
// evenly spaced thresholds spanning [0, 1].
func cThldCandidates(numCandidates int) []float64 {
	if numCandidates < 1 {
		numCandidates = 1000
	}
	out := make([]float64, numCandidates+1)
	for i := range out {
		out[i] = float64(i) / float64(numCandidates)
	}
	return out
}

// CrossValidateCThld predicts a cThld from a training set alone by k-fold
// cross-validation (§4.5.2): the set is cut into k contiguous subsets; each
// fold is scored by a forest trained on the others, and the candidate with
// the best average PC-Score across folds wins. ps holds the column-major
// NaN-free features; every fold trains off its one sort.
func CrossValidateCThld(ps *tree.Presorted, labels []bool, folds, numCandidates int, fcfg forest.Config, pref stats.Preference) float64 {
	n := len(labels)
	if folds < 2 {
		folds = 5
	}
	if n < 2*folds {
		return 0.5
	}
	candidates := cThldCandidates(numCandidates)
	sums := make([]float64, len(candidates))
	for fold := 0; fold < folds; fold++ {
		lo := fold * n / folds
		hi := (fold + 1) * n / folds
		if !bothClasses(labels[:lo], labels[hi:]) {
			continue
		}
		f := forest.TrainOn(ps, labels, lo, hi, fcfg)
		scores := f.ProbAll(featsSlice(ps.Cols(), lo, hi))
		pts := stats.AtThresholds(scores, labels[lo:hi], candidates)
		for i, pt := range pts {
			sums[i] += stats.PCScore(pt.Recall, pt.Precision, pref)
		}
	}
	best, bestSum := 0.5, -1.0
	for i, s := range sums {
		if s > bestSum {
			best, bestSum = candidates[i], s
		}
	}
	return best
}

// bothClasses reports whether the label runs, taken together, contain at
// least one anomaly and one normal point.
func bothClasses(runs ...[]bool) bool {
	var pos, neg bool
	for _, labels := range runs {
		for _, l := range labels {
			if l {
				pos = true
			} else {
				neg = true
			}
			if pos && neg {
				return true
			}
		}
	}
	return false
}

// CThldPredictor predicts next week's cThld with EWMA over historical best
// cThlds (§4.5.2): pred_i = α·best_{i-1} + (1-α)·pred_{i-1}, seeded by
// cross-validation for the first week.
type CThldPredictor struct {
	ewma stats.EWMA
}

// NewCThldPredictor returns a predictor with the paper's α = 0.8 when alpha
// is 0.
func NewCThldPredictor(alpha float64) *CThldPredictor {
	if alpha <= 0 {
		alpha = 0.8
	}
	return &CThldPredictor{ewma: stats.EWMA{Alpha: alpha}}
}

// Seed initializes the prediction (the paper seeds with 5-fold CV).
func (p *CThldPredictor) Seed(cthld float64) { p.ewma.Update(cthld) }

// Predict returns the cThld to use for the coming week.
func (p *CThldPredictor) Predict() float64 {
	v, ok := p.ewma.Value()
	if !ok {
		return 0.5
	}
	return v
}

// Observe folds in the best cThld of the week that just completed.
func (p *CThldPredictor) Observe(best float64) { p.ewma.Update(best) }

// ObserveScore is a no-op: the EWMA prediction is static between retrains.
func (p *CThldPredictor) ObserveScore(float64) {}

// Refit is a no-op: the EWMA prediction depends only on weekly bests.
func (p *CThldPredictor) Refit([]float64, []bool) {}

// Kind identifies the strategy.
func (p *CThldPredictor) Kind() PredictorKind { return PredictEWMA }

// Clone returns an independent copy of the predictor. An asynchronous
// retrain folds the latest weekly observation into the clone and only
// publishes it when the new monitor is swapped in, so a failed or abandoned
// training round never disturbs the live predictor's EWMA state.
func (p *CThldPredictor) Clone() Predictor {
	c := *p
	return &c
}
