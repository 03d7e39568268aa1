package core

import (
	"fmt"

	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/tree"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
)

// Config parameterizes an Opprentice run. The zero value selects the
// paper's setup: preference (0.66, 0.66). The rest of it is fixed: InitWeeks
// initial weeks, EWMA α = 0.8, 5 folds and 1000 cThld candidates.
type Config struct {
	Preference stats.Preference
	Forest     forest.Config
	// SkipWeeklyCV disables the per-week 5-fold baseline (it is the
	// expensive part); the EWMA predictor is then seeded with 0.5.
	SkipWeeklyCV bool
}

// WeekResult is one detection week of the online loop: the classifier was
// trained on all data before the week, predicted a cThld, detected the
// week's points, and was then given the week's labels.
type WeekResult struct {
	// Week is the 0-based week index in the series.
	Week int
	// Scores are the forest vote fractions of the week's points; Truth are
	// the operators' labels (available for evaluation after the week).
	Scores []float64
	Truth  []bool
	// BestCThld is the oracle threshold (PC-Score on the week itself);
	// EWMACThld is Opprentice's online prediction; CV5CThld is the 5-fold
	// cross-validation baseline (NaN when SkipWeeklyCV).
	BestCThld, EWMACThld, CV5CThld float64
	// Confusions of the week at the three thresholds.
	Best, EWMA, CV5 stats.Confusion
}

// Result is a full online run over one KPI.
type Result struct {
	Config Config
	Weeks  []WeekResult
}

// Run executes the Opprentice online loop of Fig. 3 over an extracted
// feature matrix: for every week after the initial training period, train
// on all labeled history (incremental retraining, I1), predict the cThld,
// classify the week, then reveal the week's labels and update the cThld
// predictor.
func Run(f *Features, labels timeseries.Labels, ppw int, cfg Config) (*Result, error) {
	if cfg.Preference == (stats.Preference{}) {
		cfg.Preference = stats.Preference{Recall: 0.66, Precision: 0.66}
	}
	n := f.NumPoints()
	if len(labels) != n {
		return nil, fmt.Errorf("core: %d labels for %d points", len(labels), n)
	}
	weeks := n / ppw
	if weeks <= InitWeeks {
		return nil, fmt.Errorf("core: %d weeks of data, need more than %d", weeks, InitWeeks)
	}
	res := &Result{Config: cfg}
	pred := NewCThldPredictor(ewmaAlpha)

	for w := InitWeeks; w < weeks; w++ {
		trainHi := w * ppw
		trainCols := f.Imputed(0, trainHi)
		trainLabels := []bool(labels[:trainHi])
		if !bothClasses(trainLabels) {
			return nil, fmt.Errorf("core: training data before week %d has a single class", w)
		}
		ps := tree.Presort(trainCols) // one sort for the week's fit and its CV folds
		b, codes := ps.Bin(0, 0, tree.MaxBins)
		model := forest.TrainOn(b, codes, trainLabels, cfg.Forest)

		testLo, testHi := trainHi, trainHi+ppw
		scores := model.ProbAll(f.Imputed(testLo, testHi))
		truth := []bool(labels[testLo:testHi])

		// Oracle: the best cThld for this week, knowable only afterwards.
		best, _ := stats.BestByPCScore(stats.PRCurve(scores, truth), cfg.Preference)

		// Online EWMA prediction, seeded by cross-validation (§4.5.2).
		var cv5 float64
		runCV := !cfg.SkipWeeklyCV
		if w == InitWeeks {
			if runCV {
				cv5 = CrossValidateCThld(ps, trainLabels, cvFolds, cThldGrid, cfg.Forest, cfg.Preference)
			} else {
				cv5 = 0.5
			}
			pred.Seed(cv5)
		} else if runCV {
			cv5 = CrossValidateCThld(ps, trainLabels, cvFolds, cThldGrid, cfg.Forest, cfg.Preference)
		}
		ewmaCThld := pred.Predict()

		wr := WeekResult{
			Week:      w,
			Scores:    scores,
			Truth:     truth,
			BestCThld: best.Threshold,
			EWMACThld: ewmaCThld,
			CV5CThld:  cv5,
			Best:      confusionAt(scores, truth, best.Threshold),
			EWMA:      confusionAt(scores, truth, ewmaCThld),
		}
		if runCV {
			wr.CV5 = confusionAt(scores, truth, cv5)
		}
		res.Weeks = append(res.Weeks, wr)

		// The operators label the week; fold its best cThld into the
		// predictor for next week. A week with no labeled anomalies carries
		// no information about where the threshold should sit (its "best"
		// is the degenerate flag-nothing point), so it is skipped.
		if bothClasses(truth) {
			pred.Observe(best.Threshold)
		}
	}
	return res, nil
}

// confusionAt evaluates predictions "score ≥ thr" against the truth.
func confusionAt(scores []float64, truth []bool, thr float64) stats.Confusion {
	pred := make([]bool, len(scores))
	for i, s := range scores {
		pred[i] = s >= thr
	}
	return stats.Confuse(pred, truth)
}

// MovingWindow aggregates consecutive weekly confusions into the paper's
// 4-week moving windows (Fig. 13): window k covers weeks [k, k+size).
type MovingWindow struct {
	ID                int
	Recall, Precision float64
}

// MovingWindows sums per-week confusions selected by pick over windows of
// the given size.
func MovingWindows(weeks []WeekResult, size int, pick func(WeekResult) stats.Confusion) []MovingWindow {
	if size < 1 {
		size = 4
	}
	var out []MovingWindow
	for k := 0; k+size <= len(weeks); k++ {
		var c stats.Confusion
		for _, wr := range weeks[k : k+size] {
			w := pick(wr)
			c.TP += w.TP
			c.FP += w.FP
			c.FN += w.FN
			c.TN += w.TN
		}
		out = append(out, MovingWindow{ID: k + 1, Recall: c.Recall(), Precision: c.Precision()})
	}
	return out
}

// RunPolicy evaluates one Table-2 training-set policy: for each moving test
// window it trains a forest on the policy's training range and reports the
// test window's AUCPR (Fig. 11, and the random-forest rows of Fig. 9).
func RunPolicy(f *Features, labels timeseries.Labels, ppw int, p Policy, fcfg forest.Config) ([]float64, error) {
	n := f.NumPoints()
	if len(labels) != n {
		return nil, fmt.Errorf("core: %d labels for %d points", len(labels), n)
	}
	var aucs []float64
	for k := 0; ; k++ {
		trainLo, trainHi, testLo, testHi, ok := p.Split(k, ppw, n)
		if !ok {
			break
		}
		trainLabels := []bool(labels[trainLo:trainHi])
		if !bothClasses(trainLabels) {
			aucs = append(aucs, 0)
			continue
		}
		model := forest.Train(f.Imputed(trainLo, trainHi), trainLabels, fcfg)
		scores := model.ProbAll(f.Imputed(testLo, testHi))
		aucs = append(aucs, stats.AUCPR(scores, labels[testLo:testHi]))
	}
	return aucs, nil
}
