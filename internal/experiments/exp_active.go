package experiments

import (
	"fmt"

	"opprentice/internal/active"
	"opprentice/internal/core"
	"opprentice/internal/labelsim"
	"opprentice/internal/ml/forest"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
)

// activeRun is one strategy's outcome over a KPI's post-bootstrap weeks.
type activeRun struct {
	windows int     // label windows applied after the bootstrap
	minutes float64 // modeled labeling time after the bootstrap (Fig. 14 pricing)
	conf    stats.Confusion
}

// pcScore collapses the summed weekly confusion into the paper's
// preference-centric score.
func (r activeRun) pcScore(pref stats.Preference) float64 {
	return stats.PCScore(r.conf.Recall(), r.conf.Precision(), pref)
}

// Active measures the label cost of the active-learning subsystem
// (internal/active): after the usual 8 fully-labeled bootstrap weeks, the
// "full" strategy keeps labeling every anomalous window weekly, while
// "active@K" answers only the K windows per week the forest is least certain
// about (vote fraction nearest the predicted cThld — the same queue the
// engine serves via /v1/queries). Both are priced with the Fig. 14 time
// model through labelsim.QueryOracle, and both are evaluated against the
// complete operator labels at the online EWMA cThld. The paper's promise is
// that uncertainty sampling buys nearly all of the accuracy for a fraction
// of the labels.
func Active(o Options) ([]*Table, error) {
	o = o.withDefaults()
	kpis, err := prepareAll(o)
	if err != nil {
		return nil, err
	}
	model := labelsim.DefaultTimeModel()
	depths := []int{1, 2, 4, 8}

	t := &Table{
		ID:    "ACTIVE",
		Title: "Active-learning label cost: full weekly labeling vs K uncertainty queries per week",
		Columns: []string{"kpi", "strategy", "windows", "label_frac", "minutes",
			"recall", "precision", "pc_score", "pc_vs_full"},
	}
	// Per-depth aggregates across the KPIs, for the headline note.
	aggFull := 0
	aggWindows := make(map[int]int)
	minRatio := make(map[int]float64)
	for _, depth := range depths {
		minRatio[depth] = 1.0
	}
	for _, k := range kpis {
		full, err := runActiveLoop(k, o, model, -1)
		if err != nil {
			return nil, err
		}
		pcFull := full.pcScore(preference)
		aggFull += full.windows
		addActiveRow(t, k.series.Name, "full", full, full, pcFull, preference)
		for _, depth := range depths {
			run, err := runActiveLoop(k, o, model, depth)
			if err != nil {
				return nil, err
			}
			addActiveRow(t, k.series.Name, fmt.Sprintf("active@%d", depth), run, full, pcFull, preference)
			aggWindows[depth] += run.windows
			if pcFull > 0 {
				if ratio := run.pcScore(preference) / pcFull; ratio < minRatio[depth] {
					minRatio[depth] = ratio
				}
			}
		}
	}
	// The cheapest query budget whose worst KPI still holds ≥95% of full.
	note := "no query budget held ≥95% of the full-label PC-Score on every KPI"
	for _, depth := range depths {
		if minRatio[depth] >= 0.95 && aggFull > 0 {
			note = fmt.Sprintf(
				"cheapest budget holding ≥95%% everywhere is active@%d: %.0f%% of the label windows, worst KPI at %.1f%% of the full-label PC-Score",
				depth, 100*float64(aggWindows[depth])/float64(aggFull), 100*minRatio[depth])
			break
		}
	}
	t.Notes = "Queries are the engine's own uncertainty queue (internal/active) replayed offline; minutes follow Fig. 14 (one sitting per week + one click-and-drag per answered window). Shape: " + note + "."
	return []*Table{t}, nil
}

func addActiveRow(t *Table, kpi, strategy string, run, full activeRun, pcFull float64, pref stats.Preference) {
	frac, ratio := 1.0, 1.0
	if full.windows > 0 {
		frac = float64(run.windows) / float64(full.windows)
	}
	if pcFull > 0 {
		ratio = run.pcScore(pref) / pcFull
	}
	t.Rows = append(t.Rows, []string{
		kpi, strategy,
		fmt.Sprintf("%d", run.windows),
		fmtF(frac),
		fmt.Sprintf("%.1f", run.minutes),
		fmtF(run.conf.Recall()), fmtF(run.conf.Precision()),
		fmtF(run.pcScore(pref)),
		fmtF(ratio),
	})
}

// runActiveLoop replays the weekly online loop of Fig. 3 with a labeling
// strategy: depth < 0 reveals every operator window each week ("full");
// depth >= 1 surfaces at most depth uncertainty queries per week and labels
// only the answered windows. Training uses the labeled pool only — the
// bootstrap weeks plus whatever the strategy labeled afterwards — so an
// unanswered window is unknown, never silently "normal". The EWMA cThld
// predictor likewise only ever sees the labels the strategy actually
// produced; the full ground truth is used for evaluation alone.
func runActiveLoop(k *kpiData, o Options, model labelsim.TimeModel, depth int) (activeRun, error) {
	n := k.feats.NumPoints()
	weeks := n / k.ppw
	if weeks <= core.InitWeeks {
		return activeRun{}, fmt.Errorf("active: %d weeks of data, need more than %d", weeks, core.InitWeeks)
	}
	bootHi := core.InitWeeks * k.ppw

	// The strategy's working view of the labels, plus the indices it has
	// actually labeled (the training pool). Bootstrap weeks are fully
	// labeled; later points join the pool only when the strategy labels them.
	working := make(timeseries.Labels, n)
	copy(working[:bootHi], k.labels[:bootHi])
	labeledIdx := make([]int, bootHi)
	for i := range labeledIdx {
		labeledIdx[i] = i
	}

	oracle := labelsim.NewQueryOracle(k.labels, model, 0, o.Seed)
	pred := core.NewCThldPredictor(0.8)
	pred.Seed(0.5)

	var run activeRun
	for w := core.InitWeeks; w < weeks; w++ {
		trainHi := w * k.ppw
		forestModel := forest.Train(
			gatherRows(k.feats.Imputed(0, trainHi), labeledIdx),
			gatherLabels(working, labeledIdx), o.forestConfig())
		testLo, testHi := trainHi, trainHi+k.ppw
		scores := forestModel.ProbAll(k.feats.Imputed(testLo, testHi))
		cthld := pred.Predict()
		wc := confusionAgainst(scores, k.labels[testLo:testHi], cthld)
		run.conf.TP += wc.TP
		run.conf.FP += wc.FP
		run.conf.FN += wc.FN
		run.conf.TN += wc.TN

		// The operators sit down once per week and label. An answered window
		// copies the operator's precise labels inside its span — the query
		// directs attention, the §4.2 tool still marks the exact anomalous
		// range with the one click-and-drag the time model charges for.
		label := func(start, end int) error {
			anomalous, ok := oracle.Answer(start, end)
			if !ok {
				return fmt.Errorf("active: unlimited oracle refused an answer")
			}
			for i := start; i < end && i < n; i++ {
				if i < 0 {
					continue
				}
				working[i] = anomalous && k.labels[i]
				labeledIdx = append(labeledIdx, i)
			}
			run.windows++
			return nil
		}
		if depth < 0 {
			// Full labeling: every operator window of the week, each priced
			// like an answered query; everything outside them is known-normal.
			weekWindows := windowsIn(k.labels, testLo, testHi)
			if len(weekWindows) > 0 {
				oracle.BeginSitting()
				for _, win := range weekWindows {
					if err := label(win.Start, min(win.End, testHi)); err != nil {
						return activeRun{}, err
					}
				}
				oracle.EndSitting()
			}
			for i := testLo; i < testHi; i++ {
				if !k.labels[i] {
					labeledIdx = append(labeledIdx, i)
				}
			}
		} else {
			// Active labeling: replay the engine's uncertainty queue over the
			// week's verdicts and answer what it surfaces.
			st := active.NewState(active.Config{Band: active.DefaultBand, Depth: depth})
			for i, s := range scores {
				st.Observe(testLo+i, s, cthld)
			}
			queries := st.Windows(nil)
			if len(queries) > 0 {
				oracle.BeginSitting()
				for _, q := range queries {
					if err := label(q.Start, q.End); err != nil {
						return activeRun{}, err
					}
				}
				oracle.EndSitting()
			}
		}

		// Fold the week's best cThld — under the labels the strategy actually
		// has — into the predictor, as the engine does after each retrain.
		weekScores, weekTruth := gatherWeek(scores, working, labeledIdx, testLo, testHi)
		if bothLabelClasses(weekTruth) {
			best, _ := stats.BestByPCScore(stats.PRCurve(weekScores, weekTruth), preference)
			pred.Observe(best.Threshold)
		}
	}
	run.minutes = oracle.SpentMinutes()
	return run, nil
}

// gatherRows selects the given row indices out of column-major features.
func gatherRows(cols [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(cols))
	for j, c := range cols {
		s := make([]float64, len(idx))
		for r, i := range idx {
			s[r] = c[i]
		}
		out[j] = s
	}
	return out
}

// gatherLabels selects the given indices out of the working labels.
func gatherLabels(labels timeseries.Labels, idx []int) []bool {
	out := make([]bool, len(idx))
	for r, i := range idx {
		out[r] = labels[i]
	}
	return out
}

// gatherWeek returns the scores and working labels of the week's labeled
// points only.
func gatherWeek(scores []float64, working timeseries.Labels, labeledIdx []int, testLo, testHi int) ([]float64, []bool) {
	var ws []float64
	var wt []bool
	for _, i := range labeledIdx {
		if i >= testLo && i < testHi {
			ws = append(ws, scores[i-testLo])
			wt = append(wt, working[i])
		}
	}
	return ws, wt
}

// confusionAgainst evaluates "score >= thr" against the full ground truth.
func confusionAgainst(scores []float64, truth timeseries.Labels, thr float64) stats.Confusion {
	pred := make([]bool, len(scores))
	for i, s := range scores {
		pred[i] = s >= thr
	}
	return stats.Confuse(pred, truth)
}

// windowsIn lists the label windows that start inside [lo, hi).
func windowsIn(labels timeseries.Labels, lo, hi int) []timeseries.Window {
	var out []timeseries.Window
	for _, w := range labels.Windows() {
		if w.Start >= lo && w.Start < hi {
			out = append(out, w)
		}
	}
	return out
}

func bothLabelClasses(labels []bool) bool {
	var pos, neg bool
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
	return false
}
