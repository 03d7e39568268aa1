package experiments

import (
	"fmt"
	"sort"

	"opprentice/internal/combine"
	"opprentice/internal/core"
	"opprentice/internal/ml/bayes"
	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/linear"
	"opprentice/internal/ml/tree"
	"opprentice/internal/stats"
)

// approachEval holds the anomaly scores of every detection approach over the
// test region (from the 9th week on), ready for AUCPR ranking and PR curves.
type approachEval struct {
	kpi        string
	names      []string             // all approach names, configs included
	aucs       []float64            // aligned with names
	scores     map[string][]float64 // per-approach test scores
	testLabels []bool
}

const (
	nameRF   = "random_forest"
	nameNorm = "normalization_schema"
	nameVote = "majority_vote"
)

// evaluateApproaches scores the random forest (incrementally retrained,
// I1), the two static combinations, and all 133 configurations over the test
// region, as §5.3.1 does.
func evaluateApproaches(k *kpiData, o Options) (*approachEval, error) {
	testLo := core.InitWeeks * k.ppw
	weeks := k.feats.NumPoints() / k.ppw
	testHi := weeks * k.ppw

	res, err := core.Run(k.feats, k.labels, k.ppw, core.Config{
		Preference:   preference,
		Forest:       o.forestConfig(),
		SkipWeeklyCV: true,
	})
	if err != nil {
		return nil, err
	}
	ev := &approachEval{
		kpi:        k.series.Name,
		scores:     make(map[string][]float64),
		testLabels: []bool(k.labels[testLo:testHi]),
	}
	var rfScores []float64
	for _, w := range res.Weeks {
		rfScores = append(rfScores, w.Scores...)
	}
	ev.add(nameRF, rfScores)

	calib := k.feats.Imputed(0, testLo)
	test := k.feats.Imputed(testLo, testHi)
	ev.add(nameNorm, combine.NewNormalization(calib).ScoreAll(test))
	ev.add(nameVote, combine.NewMajorityVote(calib, combine.DefaultVoteQuantile).ScoreAll(test))

	for j, name := range k.feats.Names {
		ev.add(name, k.feats.Cols[j][testLo:testHi])
	}
	return ev, nil
}

func (ev *approachEval) add(name string, scores []float64) {
	ev.names = append(ev.names, name)
	ev.aucs = append(ev.aucs, stats.AUCPR(scores, ev.testLabels))
	ev.scores[name] = scores
}

// topConfigs returns the n basic-detector configurations with the highest
// AUCPR.
func (ev *approachEval) topConfigs(n int) []string {
	type pair struct {
		name string
		auc  float64
	}
	var ps []pair
	for i, name := range ev.names {
		if name == nameRF || name == nameNorm || name == nameVote {
			continue
		}
		ps = append(ps, pair{name, ev.aucs[i]})
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].auc > ps[b].auc })
	if n > len(ps) {
		n = len(ps)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = ps[i].name
	}
	return out
}

func (ev *approachEval) aucOf(name string) float64 {
	for i, n := range ev.names {
		if n == name {
			return ev.aucs[i]
		}
	}
	return 0
}

// Fig9 reproduces Fig. 9: for each KPI the AUCPR ranking of the random
// forest, the two static combination methods and the 133 configurations,
// plus the top-3 basic configurations.
func Fig9(o Options) ([]*Table, error) {
	o = o.withDefaults()
	kpis, err := prepareAll(o)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, k := range kpis {
		ev, err := evaluateApproaches(k, o)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:      "F9",
			Title:   fmt.Sprintf("AUCPR ranking — KPI %s", ev.kpi),
			Columns: []string{"rank", "approach", "aucpr"},
		}
		rows := []string{nameRF, nameNorm, nameVote}
		rows = append(rows, ev.topConfigs(3)...)
		for _, name := range rows {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d/%d", rankOf(name, ev.names, ev.aucs), len(ev.names)),
				name,
				fmtF(ev.aucOf(name)),
			})
		}
		t.Notes = "Paper shape: RF ranks 1st or 2nd on every KPI; both static combinations rank low; the top basic detector differs per KPI."
		tables = append(tables, t)
	}
	return tables, nil
}

// Table4 reproduces Table 4: the maximum precision achievable when recall ≥
// 0.66, per approach and KPI.
func Table4(o Options) ([]*Table, error) {
	o = o.withDefaults()
	kpis, err := prepareAll(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "T4",
		Title:   "Maximum precision when recall >= 0.66",
		Columns: []string{"approach", "pv", "sr", "srt"},
	}
	rowNames := []string{nameRF, nameNorm, nameVote, "1st basic detector", "2nd basic detector", "3rd basic detector"}
	cells := make(map[string][]string)
	for _, name := range rowNames {
		cells[name] = []string{name}
	}
	for _, k := range kpis {
		ev, err := evaluateApproaches(k, o)
		if err != nil {
			return nil, err
		}
		top := ev.topConfigs(3)
		get := func(name string) float64 {
			return maxPrecisionAtRecall(ev.scores[name], ev.testLabels, 0.66)
		}
		cells[nameRF] = append(cells[nameRF], fmt.Sprintf("%.2f", get(nameRF)))
		cells[nameNorm] = append(cells[nameNorm], fmt.Sprintf("%.2f", get(nameNorm)))
		cells[nameVote] = append(cells[nameVote], fmt.Sprintf("%.2f", get(nameVote)))
		for i := 0; i < 3; i++ {
			label := fmt.Sprintf("%d%s basic detector", i+1, ordinal(i+1))
			v := "-"
			if i < len(top) {
				v = fmt.Sprintf("%.2f (%s)", get(top[i]), top[i])
			}
			cells[label] = append(cells[label], v)
		}
	}
	for _, name := range rowNames {
		t.Rows = append(t.Rows, cells[name])
	}
	t.Notes = "Paper: RF precision 0.83/0.87/0.89 across PV/#SR/SRT; static combinations ≤ 0.32; best basic detector varies by KPI."
	return []*Table{t}, nil
}

func ordinal(n int) string {
	switch n {
	case 1:
		return "st"
	case 2:
		return "nd"
	case 3:
		return "rd"
	default:
		return "th"
	}
}

// maxPrecisionAtRecall returns the best precision among PR points whose
// recall meets the floor (0 when unreachable).
func maxPrecisionAtRecall(scores []float64, truth []bool, recallFloor float64) float64 {
	best := 0.0
	for _, pt := range stats.PRCurve(scores, truth) {
		if pt.Recall >= recallFloor && pt.Precision > best {
			best = pt.Precision
		}
	}
	return best
}

// learnerAUC trains one Fig-10 learner on train columns and returns its test
// AUCPR.
func learnerAUC(name string, trainCols, testCols [][]float64, trainLabels, testLabels []bool, o Options) float64 {
	switch name {
	case "decision_tree":
		nodes := growCART(trainCols, trainLabels)
		scores := make([]float64, len(testLabels))
		row := make([]float64, len(testCols))
		for i := range scores {
			for j, col := range testCols {
				row[j] = col[i]
			}
			scores[i] = tree.Prob(nodes, 0, row)
		}
		return stats.AUCPR(scores, testLabels)
	case "naive_bayes":
		m := bayes.Train(trainCols, trainLabels)
		return stats.AUCPR(m.ScoreAll(testCols), testLabels)
	case "logistic_regression":
		m := linear.Train(trainCols, trainLabels, linear.Config{Kind: linear.Logistic, Seed: o.Seed})
		return stats.AUCPR(m.ScoreAll(testCols), testLabels)
	case "linear_svm":
		m := linear.Train(trainCols, trainLabels, linear.Config{Kind: linear.SVM, Seed: o.Seed})
		return stats.AUCPR(m.ScoreAll(testCols), testLabels)
	default: // random_forest
		f := forest.Train(trainCols, trainLabels, o.forestConfig())
		return stats.AUCPR(f.ProbAll(testCols), testLabels)
	}
}

// fig10Learners lists the compared algorithms in the paper's legend order.
func fig10Learners() []string {
	return []string{"decision_tree", "linear_svm", "logistic_regression", "naive_bayes", "random_forest"}
}

// Fig10 reproduces Fig. 10: AUCPR of five learning algorithms as features
// are added in mutual-information order; random forests should stay high
// while the others destabilize.
func Fig10(o Options) ([]*Table, error) {
	o = o.withDefaults()
	kpis, err := prepareAll(o)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, k := range kpis {
		trainHi := core.InitWeeks * k.ppw
		total := (k.feats.NumPoints() / k.ppw) * k.ppw
		trainCols := k.feats.Imputed(0, trainHi)
		testCols := k.feats.Imputed(trainHi, total)
		trainLabels := []bool(k.labels[:trainHi])
		testLabels := []bool(k.labels[trainHi:total])

		// Order features by mutual information with the training labels.
		type mi struct {
			j int
			v float64
		}
		mis := make([]mi, len(trainCols))
		for j, col := range trainCols {
			mis[j] = mi{j, stats.MutualInformation(col, trainLabels, 32)}
		}
		sort.SliceStable(mis, func(a, b int) bool { return mis[a].v > mis[b].v })

		t := &Table{
			ID:      "F10",
			Title:   fmt.Sprintf("AUCPR vs number of features (MI order) — KPI %s", k.series.Name),
			Columns: append([]string{"features"}, fig10Learners()...),
		}
		for _, nf := range []int{1, 5, 13, 33, 67, 100, 133} {
			if nf > len(mis) {
				nf = len(mis)
			}
			subTrain := make([][]float64, nf)
			subTest := make([][]float64, nf)
			for i := 0; i < nf; i++ {
				subTrain[i] = trainCols[mis[i].j]
				subTest[i] = testCols[mis[i].j]
			}
			row := []string{fmt.Sprintf("%d", nf)}
			for _, learner := range fig10Learners() {
				row = append(row, fmtF(learnerAUC(learner, subTrain, subTest, trainLabels, testLabels, o)))
			}
			t.Rows = append(t.Rows, row)
			if nf == len(mis) {
				break
			}
		}
		t.Notes = "Paper shape: random forests stay high and stable as irrelevant/redundant features are added; the other learners degrade or oscillate."
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig11 reproduces Fig. 11: AUCPR of random forests under the three
// training-set policies F4, R4 and I4 over 4-week moving test sets.
func Fig11(o Options) ([]*Table, error) {
	o = o.withDefaults()
	kpis, err := prepareAll(o)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, k := range kpis {
		t := &Table{
			ID:      "F11",
			Title:   fmt.Sprintf("AUCPR of training sets — KPI %s", k.series.Name),
			Columns: []string{"test_window", "F4_first8w", "R4_recent8w", "I4_all_history"},
		}
		var byPolicy [3][]float64
		for i, p := range []core.Policy{core.F4, core.R4, core.I4} {
			aucs, err := core.RunPolicy(k.feats, k.labels, k.ppw, p, o.forestConfig())
			if err != nil {
				return nil, err
			}
			byPolicy[i] = aucs
		}
		var sums [3]float64
		for w := range byPolicy[0] {
			row := []string{fmt.Sprintf("%d", w+1)}
			for i := range byPolicy {
				row = append(row, fmtF(byPolicy[i][w]))
				sums[i] += byPolicy[i][w]
			}
			t.Rows = append(t.Rows, row)
		}
		if n := len(byPolicy[0]); n > 0 {
			t.Rows = append(t.Rows, []string{
				"mean",
				fmtF(sums[0] / float64(n)),
				fmtF(sums[1] / float64(n)),
				fmtF(sums[2] / float64(n)),
			})
		}
		t.Notes = "Paper shape: I4 (incremental retraining) matches or beats R4 and F4 in most windows."
		tables = append(tables, t)
	}
	return tables, nil
}
