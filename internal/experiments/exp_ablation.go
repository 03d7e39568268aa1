package experiments

import (
	"fmt"
	"math/rand"

	"opprentice/internal/core"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
	"opprentice/internal/stats"
)

// AblationEWMA sweeps the cThld-prediction smoothing constant α on PV: the
// weekly best-cThld sequence is fixed, so each α can be replayed without
// retraining. α = 0.8 is the paper's choice.
func AblationEWMA(o Options) ([]*Table, error) {
	o = o.withDefaults()
	k, err := prepare(kpigen.PV(o.Scale), o)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(k.feats, k.labels, k.ppw, core.Config{
		Preference:   preference,
		Forest:       o.forestConfig(),
		SkipWeeklyCV: true,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "AblEWMA",
		Title:   "cThld-prediction smoothing constant (PV)",
		Columns: []string{"alpha", "weeks_in_box", "mean_abs_cthld_error"},
	}
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.8, 1.0} {
		pred := core.NewCThldPredictor(alpha)
		pred.Seed(0.5)
		in := 0
		errSum := 0.0
		for _, w := range res.Weeks {
			thr := pred.Predict()
			r, p := stats.AtThreshold(w.Scores, w.Truth, thr)
			if preference.Satisfied(r, p) {
				in++
			}
			errSum += absF(thr - w.BestCThld)
			pred.Observe(w.BestCThld)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", alpha),
			fmt.Sprintf("%d/%d", in, len(res.Weeks)),
			fmtF(errSum / float64(len(res.Weeks))),
		})
	}
	t.Notes = "The paper uses alpha = 0.8 to quickly catch up with cThld variation."
	return []*Table{t}, nil
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// AblationPC sweeps the PC-Score incentive constant on PV: with constant 0
// the metric degenerates to the F-Score; the paper's constant 1 guarantees
// preference-satisfying points always win.
func AblationPC(o Options) ([]*Table, error) {
	o = o.withDefaults()
	k, err := prepare(kpigen.PV(o.Scale), o)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(k.feats, k.labels, k.ppw, core.Config{
		Preference:   preference,
		Forest:       o.forestConfig(),
		SkipWeeklyCV: true,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "AblPC",
		Title:   "PC-Score incentive constant (PV)",
		Columns: []string{"incentive", "weeks_in_box"},
	}
	for _, c := range []float64{0, 0.1, 0.5, 1, 2} {
		in := 0
		for _, w := range res.Weeks {
			pt := selectWithIncentive(w.Scores, w.Truth, preference, c)
			if preference.Satisfied(pt.Recall, pt.Precision) {
				in++
			}
		}
		t.Rows = append(t.Rows, []string{fmtF(c), fmt.Sprintf("%d/%d", in, len(res.Weeks))})
	}
	t.Notes = "Any incentive >= 1 dominates (F-Score <= 1); small incentives can still lose to high-F points outside the box; 0 is plain F-Score."
	return []*Table{t}, nil
}

// selectWithIncentive is PC-Score selection with a configurable incentive
// constant.
func selectWithIncentive(scores []float64, truth []bool, pref stats.Preference, incentive float64) stats.PRPoint {
	curve := stats.PRCurve(scores, truth)
	best := stats.PRPoint{}
	bestScore := -1.0
	for _, pt := range curve {
		s := stats.FScore(pt.Recall, pt.Precision)
		if pref.Satisfied(pt.Recall, pt.Precision) {
			s += incentive
		}
		if s > bestScore {
			best, bestScore = pt, s
		}
	}
	return best
}

// AblationPool measures forest accuracy against the size of the
// configuration pool on PV: random subsets of the 133 configurations,
// trained on the first 8 weeks and tested on the rest.
func AblationPool(o Options) ([]*Table, error) {
	o = o.withDefaults()
	k, err := prepare(kpigen.PV(o.Scale), o)
	if err != nil {
		return nil, err
	}
	trainHi := core.InitWeeks * k.ppw
	total := (k.feats.NumPoints() / k.ppw) * k.ppw
	trainCols := k.feats.Imputed(0, trainHi)
	testCols := k.feats.Imputed(trainHi, total)
	trainLabels := []bool(k.labels[:trainHi])
	testLabels := []bool(k.labels[trainHi:total])

	t := &Table{
		ID:      "AblPool",
		Title:   "Forest AUCPR vs number of configurations (PV, random subsets)",
		Columns: []string{"configurations", "aucpr"},
	}
	rng := rand.New(rand.NewSource(o.Seed))
	for _, size := range []int{5, 15, 40, 80, 133} {
		if size > len(trainCols) {
			size = len(trainCols)
		}
		perm := rng.Perm(len(trainCols))[:size]
		subTrain := make([][]float64, size)
		subTest := make([][]float64, size)
		for i, j := range perm {
			subTrain[i] = trainCols[j]
			subTest[i] = testCols[j]
		}
		f := forest.Train(subTrain, trainLabels, o.forestConfig())
		auc := stats.AUCPR(f.ProbAll(subTest), testLabels)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", size), fmtF(auc)})
		if size == len(trainCols) {
			break
		}
	}
	t.Notes = "Broad pools let the forest find suitable configurations without manual selection (§4.3.2); accuracy should rise then plateau."
	return []*Table{t}, nil
}
