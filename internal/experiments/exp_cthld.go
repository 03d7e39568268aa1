package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/tree"
	"opprentice/internal/stats"
)

// Fig5 reproduces Fig. 5: a compacted decision tree learned from the SRT
// data set, printed as if-then rules over detector severities.
func Fig5(o Options) ([]*Table, error) {
	o = o.withDefaults()
	k, err := prepare(kpigen.SRT(o.Scale), o)
	if err != nil {
		return nil, err
	}
	trainHi := core.InitWeeks * k.ppw
	cols := k.feats.Imputed(0, trainHi)
	labels := []bool(k.labels[:trainHi])

	b, binned := tree.Presort(cols).Bin(0, 0, tree.MaxBins)
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	tr := tree.Grow(binned, labels, idx, tree.Config{})

	var sb strings.Builder
	tr.Print(&sb, k.feats.Names, b, 3)
	return []*Table{{
		ID:    "F5",
		Title: "Decision tree learned from SRT (compacted to depth 3)",
		Notes: sb.String() + fmt.Sprintf("full tree: %d nodes, depth %d\n", tr.NumNodes(), tr.Depth()),
	}}, nil
}

// fig6Preferences are the two assumed preferences of Fig. 6.
func fig6Preferences() []stats.Preference {
	return []stats.Preference{
		{Recall: 0.75, Precision: 0.6},
		{Recall: 0.5, Precision: 0.9},
	}
}

// Fig6 reproduces Fig. 6: the PR curve of a random forest on PV and the
// operating points selected by the four cThld metrics under two assumed
// preferences.
func Fig6(o Options) ([]*Table, error) {
	o = o.withDefaults()
	k, err := prepare(kpigen.PV(o.Scale), o)
	if err != nil {
		return nil, err
	}
	trainHi := core.InitWeeks * k.ppw
	total := (k.feats.NumPoints() / k.ppw) * k.ppw
	model := forest.Train(k.feats.Imputed(0, trainHi), k.labels[:trainHi], o.forestConfig())
	scores := model.ProbAll(k.feats.Imputed(trainHi, total))
	truth := []bool(k.labels[trainHi:total])
	curve := stats.PRCurve(scores, truth)

	curveT := &Table{
		ID:      "F6",
		Title:   "PR curve of a random forest trained and tested on PV",
		Columns: []string{"cthld", "recall", "precision"},
	}
	step := len(curve)/20 + 1
	for i := 0; i < len(curve); i += step {
		pt := curve[i]
		curveT.Rows = append(curveT.Rows, []string{fmtF(pt.Threshold), fmtF(pt.Recall), fmtF(pt.Precision)})
	}

	selT := &Table{
		ID:      "F6",
		Title:   "cThld selections of the four accuracy metrics",
		Columns: []string{"preference", "metric", "cthld", "recall", "precision", "inside_box"},
	}
	for _, pref := range fig6Preferences() {
		prefName := fmt.Sprintf("r>=%.2f,p>=%.2f", pref.Recall, pref.Precision)
		for _, m := range core.Metrics() {
			pt := core.SelectCThld(scores, truth, m, pref)
			selT.Rows = append(selT.Rows, []string{
				prefName, m.String(), fmtF(pt.Threshold), fmtF(pt.Recall), fmtF(pt.Precision),
				fmt.Sprintf("%v", pref.Satisfied(pt.Recall, pt.Precision)),
			})
		}
	}
	selT.Notes = "Paper shape: only PC-Score adapts its point to the preference box; default/F-Score/SD(1,1) pick one fixed point each."
	return []*Table{curveT, selT}, nil
}

// Fig7 reproduces Fig. 7: the best cThld of each 1-week moving test set,
// showing that best cThlds vary across weeks but resemble their neighbors.
func Fig7(o Options) ([]*Table, error) {
	o = o.withDefaults()
	kpis, err := prepareAll(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F7",
		Title:   "Best cThld of each week (test sets from the 9th week)",
		Columns: []string{"week", "pv", "sr", "srt"},
	}
	var series [3][]float64
	maxWeeks := 0
	for i, k := range kpis {
		res, err := core.Run(k.feats, k.labels, k.ppw, core.Config{
			Preference:   o.Preference,
			Forest:       o.forestConfig(),
			SkipWeeklyCV: true,
		})
		if err != nil {
			return nil, err
		}
		for _, w := range res.Weeks {
			// Weeks with no labeled anomalies have a degenerate best cThld
			// (flag nothing); mark them absent, as §5.5 notes anomalies are
			// rare in some weeks.
			if hasAnomaly(w.Truth) {
				series[i] = append(series[i], w.BestCThld)
			} else {
				series[i] = append(series[i], math.NaN())
			}
		}
		if len(series[i]) > maxWeeks {
			maxWeeks = len(series[i])
		}
	}
	for w := 0; w < maxWeeks; w++ {
		row := []string{fmt.Sprintf("%d", w+core.InitWeeks+1)}
		for i := 0; i < 3; i++ {
			if w < len(series[i]) && !math.IsNaN(series[i][w]) {
				row = append(row, fmtF(series[i][w]))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	var notes strings.Builder
	names := []string{"pv", "sr", "srt"}
	for i, s := range series {
		nd, gd := neighborVsGlobalDeviation(s)
		fmt.Fprintf(&notes, "%s: mean |Δ neighbor| = %.3f vs mean |dev from global mean| = %.3f\n", names[i], nd, gd)
	}
	notes.WriteString("Paper shape: best cThlds differ across weeks but neighboring weeks are more similar than the global average — the case for EWMA prediction.")
	t.Notes = notes.String()
	return []*Table{t}, nil
}

// hasAnomaly reports whether any point is labeled anomalous.
func hasAnomaly(truth []bool) bool {
	for _, t := range truth {
		if t {
			return true
		}
	}
	return false
}

// neighborVsGlobalDeviation returns the mean absolute difference between
// consecutive present values and the mean absolute deviation from the global
// mean, skipping NaN entries (anomaly-free weeks).
func neighborVsGlobalDeviation(xs []float64) (neighbor, global float64) {
	present := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			present = append(present, v)
		}
	}
	if len(present) < 2 {
		return 0, 0
	}
	mean := 0.0
	for _, v := range present {
		mean += v
	}
	mean /= float64(len(present))
	for i, v := range present {
		global += math.Abs(v - mean)
		if i > 0 {
			neighbor += math.Abs(v - present[i-1])
		}
	}
	return neighbor / float64(len(present)-1), global / float64(len(present))
}

// fig12Preferences are the three operator preferences of Fig. 12.
func fig12Preferences() []struct {
	name string
	pref stats.Preference
} {
	return []struct {
		name string
		pref stats.Preference
	}{
		{"moderate(0.66,0.66)", stats.Preference{Recall: 0.66, Precision: 0.66}},
		{"precision(0.6,0.8)", stats.Preference{Recall: 0.6, Precision: 0.8}},
		{"recall(0.8,0.6)", stats.Preference{Recall: 0.8, Precision: 0.6}},
	}
}

// Fig12 reproduces Fig. 12: for each KPI and preference, the fraction of
// weeks whose (recall, precision) lands inside the (possibly scaled-up)
// preference box, per cThld-selection metric, in the offline/oracle setting.
func Fig12(o Options) ([]*Table, error) {
	o = o.withDefaults()
	kpis, err := prepareAll(o)
	if err != nil {
		return nil, err
	}
	ratios := []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	cols := []string{"kpi", "preference", "metric"}
	for _, r := range ratios {
		cols = append(cols, fmt.Sprintf("in_box@%.1fx", r))
	}
	t := &Table{
		ID:      "F12",
		Title:   "Offline cThld metrics: % of weeks inside the preference box",
		Columns: cols,
	}
	for _, k := range kpis {
		res, err := core.Run(k.feats, k.labels, k.ppw, core.Config{
			Preference:   o.Preference,
			Forest:       o.forestConfig(),
			SkipWeeklyCV: true,
		})
		if err != nil {
			return nil, err
		}
		for _, pp := range fig12Preferences() {
			for _, m := range core.Metrics() {
				pts := make([]stats.PRPoint, 0, len(res.Weeks))
				for _, w := range res.Weeks {
					pts = append(pts, core.SelectCThld(w.Scores, w.Truth, m, pp.pref))
				}
				row := []string{k.series.Name, pp.name, m.String()}
				for _, ratio := range ratios {
					scaled := pp.pref.Scale(ratio)
					in := 0
					for _, pt := range pts {
						if scaled.Satisfied(pt.Recall, pt.Precision) {
							in++
						}
					}
					row = append(row, fmt.Sprintf("%.0f%%", 100*float64(in)/float64(len(pts))))
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	t.Notes = "Paper shape: PC-Score adapts to each preference and keeps the most weeks inside the box at every scaling ratio."
	return []*Table{t}, nil
}

// Fig13 reproduces Fig. 13: the online accuracy of Opprentice as a whole —
// EWMA-predicted cThlds against 5-fold cross-validation and the offline
// best case, on 4-week moving windows.
func Fig13(o Options) ([]*Table, error) {
	o = o.withDefaults()
	kpis, err := prepareAll(o)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, k := range kpis {
		res, err := core.Run(k.feats, k.labels, k.ppw, core.Config{
			Preference: o.Preference,
			Forest:     o.forestConfig(),
		})
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:    "F13",
			Title: fmt.Sprintf("Online detection (4-week moving windows) — KPI %s", k.series.Name),
			Columns: []string{"window", "best_recall", "best_precision",
				"ewma_recall", "ewma_precision", "cv5_recall", "cv5_precision"},
		}
		best := core.MovingWindows(res.Weeks, 4, func(w core.WeekResult) stats.Confusion { return w.Best })
		ewma := core.MovingWindows(res.Weeks, 4, func(w core.WeekResult) stats.Confusion { return w.EWMA })
		cv5 := core.MovingWindows(res.Weeks, 4, func(w core.WeekResult) stats.Confusion { return w.CV5 })
		var inBest, inEWMA, inCV5 int
		for i := range best {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", best[i].ID),
				fmtF(best[i].Recall), fmtF(best[i].Precision),
				fmtF(ewma[i].Recall), fmtF(ewma[i].Precision),
				fmtF(cv5[i].Recall), fmtF(cv5[i].Precision),
			})
			if o.Preference.Satisfied(best[i].Recall, best[i].Precision) {
				inBest++
			}
			if o.Preference.Satisfied(ewma[i].Recall, ewma[i].Precision) {
				inEWMA++
			}
			if o.Preference.Satisfied(cv5[i].Recall, cv5[i].Precision) {
				inCV5++
			}
		}
		t.Notes = fmt.Sprintf(
			"windows inside preference box: best=%d/%d ewma=%d/%d cv5=%d/%d. Paper shape: EWMA lands more windows inside the box than 5-fold (PV +40%%, #SR +23%%, SRT +110%%).",
			inBest, len(best), inEWMA, len(ewma), inCV5, len(cv5))
		tables = append(tables, t)
	}
	return tables, nil
}

// Lag reproduces §5.8: feature-extraction time per point, classification
// time per point and training time per round, on this machine.
func Lag(o Options) ([]*Table, error) {
	o = o.withDefaults()
	p := kpigen.SRT(o.Scale) // coarse interval: cheapest full pipeline
	d := kpigen.Generate(p, o.Seed)
	reg, err := detectors.Registry(p.Interval)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	feats, err := core.Extract(d.Series, reg, core.ExtractConfig{})
	if err != nil {
		return nil, err
	}
	extract := time.Since(start)

	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		return nil, err
	}
	trainHi := core.InitWeeks * ppw
	start = time.Now()
	model := forest.Train(feats.Imputed(0, trainHi), d.Labels[:trainHi], o.forestConfig())
	trainTime := time.Since(start)

	test := feats.Imputed(trainHi, feats.NumPoints())
	start = time.Now()
	_ = model.ProbAll(test)
	classify := time.Since(start)

	nTest := feats.NumPoints() - trainHi
	t := &Table{
		ID:      "LAG",
		Title:   "Detection lag and training time (this machine)",
		Columns: []string{"stage", "total", "per_point"},
		Rows: [][]string{
			{"feature extraction (133 configs)", extract.String(),
				(extract / time.Duration(feats.NumPoints())).String()},
			{"classification", classify.String(),
				(classify / time.Duration(maxInt(nTest, 1))).String()},
			{"training (one round)", trainTime.String(), "-"},
		},
	}
	t.Notes = "Paper: 0.15 s/point extraction, <0.0001 s/point classification, <5 min/round training on a 2012 Xeon. The requirement is extraction+classification ≪ the data interval."
	return []*Table{t}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
