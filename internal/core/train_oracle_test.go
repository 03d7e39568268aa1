package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/tree"
	"opprentice/internal/stats"
)

// A training round as it was before its fits shared one presort: every fold
// and every held-out half trains on a hand-copied matrix through
// forest.Train. Kept only as the oracle NewMonitor, Retrain and
// CrossValidateCThld are compared against (forest.Train itself is pinned to
// its former self by the forest and tree oracles).

// refTypeHead trains a type head on a presort and a binning of its own.
func refTypeHead(cols [][]float64, types []uint8, fcfg forest.Config) *forest.MultiClass {
	b, codes := tree.Presort(cols).Bin(0, 0, tree.MaxBins)
	return forest.TrainMulti(b, codes, types, fcfg)
}

// refCrossValidateCThld is CrossValidateCThld's former body.
func refCrossValidateCThld(cols [][]float64, labels []bool, folds, numCandidates int, fcfg forest.Config, pref stats.Preference) float64 {
	n := len(labels)
	if n < 2*folds {
		return 0.5
	}
	candidates := cThldCandidates(numCandidates)
	sums := make([]float64, len(candidates))
	for fold := 0; fold < folds; fold++ {
		lo := fold * n / folds
		hi := (fold + 1) * n / folds
		trainCols := make([][]float64, len(cols))
		trainLabels := make([]bool, 0, n-(hi-lo))
		for j, col := range cols {
			tc := make([]float64, 0, n-(hi-lo))
			tc = append(tc, col[:lo]...)
			tc = append(tc, col[hi:]...)
			trainCols[j] = tc
		}
		trainLabels = append(trainLabels, labels[:lo]...)
		trainLabels = append(trainLabels, labels[hi:]...)
		if !bothClasses(trainLabels) {
			continue
		}
		f := forest.Train(trainCols, trainLabels, fcfg)
		scores := f.ProbAll(featsSlice(cols, lo, hi))
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

// refHeldOutScores is heldOutScores' former body.
func refHeldOutScores(model *forest.Forest, cols [][]float64, labels []bool, fcfg forest.Config) []float64 {
	n := len(labels)
	out := make([]float64, n)
	score := func(lo, hi, clo, chi int) {
		if hi <= lo {
			return
		}
		cl := labels[clo:chi]
		if chi <= clo || !bothClasses(cl) {
			copy(out[lo:hi], model.ProbAll(featsSlice(cols, lo, hi)))
			return
		}
		f := forest.Train(featsSlice(cols, clo, chi), cl, fcfg)
		copy(out[lo:hi], f.ProbAll(featsSlice(cols, lo, hi)))
	}
	mid := n / 2
	score(0, mid, mid, n)
	score(mid, n, 0, mid)
	return out
}

// TestTrainingRoundMatchesReference trains a full monitor — hourly registry,
// cross-validated cThld, typed labels — under both predictors and retrains
// it on a week more, and requires of each round the reference's forest bytes,
// type-head bytes, CV cThld and predictor state (for EVT: the tail fitted on
// the held-out scores).
func TestTrainingRoundMatchesReference(t *testing.T) {
	for _, p := range []kpigen.Profile{kpigen.PV(kpigen.Small), kpigen.SRT(kpigen.Small)} {
		for _, kind := range []PredictorKind{PredictEWMA, PredictEVT} {
			p := p
			p.Interval, p.Weeks = time.Hour, 10
			t.Run(fmt.Sprintf("%s/%v", p.Name, kind), func(t *testing.T) {
				d := kpigen.Generate(p, evtSeed)
				types := kpigen.TypedLabels(d)
				ppw, err := d.Series.PointsPerWeek()
				if err != nil {
					t.Fatal(err)
				}
				registry := func() []detectors.Detector {
					dets, err := detectors.Registry(p.Interval)
					if err != nil {
						t.Fatal(err)
					}
					return dets
				}
				fcfg := forest.Config{Trees: 8, Seed: evtSeed}
				pref := stats.Preference{Recall: 0.66, Precision: 0.66}

				boot := d.Series.Len() - ppw
				history, labels := d.Series.Slice(0, boot), d.Labels[:boot]
				mon, err := NewMonitor(history, labels, registry(), MonitorConfig{
					Forest: fcfg, Predictor: kind, TypeLabels: types[:boot],
				})
				if err != nil {
					t.Fatal(err)
				}
				feats, err := Extract(history, registry(), ExtractConfig{})
				if err != nil {
					t.Fatal(err)
				}
				cols := feats.ImputedFull()
				model := forest.Train(cols, labels, fcfg)
				if !bytes.Equal(mon.model.Append(nil), model.Append(nil)) {
					t.Error("NewMonitor's forest differs from the reference")
				}
				wantCV := refCrossValidateCThld(cols, labels, 5, 1000, fcfg, pref)
				if cv := CrossValidateCThld(tree.Presort(cols), labels, 5, 1000, fcfg, pref); cv != wantCV {
					t.Errorf("CrossValidateCThld = %v, reference %v", cv, wantCV)
				}
				pred := newPredictor(kind, 0, 0, pref)
				pred.Seed(wantCV)
				if kind == PredictEVT {
					pred.Refit(refHeldOutScores(model, cols, labels, fcfg), labels)
				}
				if !reflect.DeepEqual(mon.pred, pred) || mon.cthld != pred.Predict() {
					t.Errorf("NewMonitor's predictor %+v (cThld %v) differs from the reference %+v (cThld %v)",
						mon.pred, mon.cthld, pred, pred.Predict())
				}
				wantHead := refTypeHead(cols, types[:boot], fcfg)
				if wantHead == nil || mon.typeModel == nil {
					t.Fatal("typed labels did not train a head")
				}
				if !bytes.Equal(mon.typeModel.Append(nil), wantHead.Append(nil)) {
					t.Error("NewMonitor's type head differs from one trained on its own binning")
				}

				next, err := mon.Retrain(d.Series, d.Labels, types, registry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				feats, err = Extract(d.Series, registry(), ExtractConfig{})
				if err != nil {
					t.Fatal(err)
				}
				cols = feats.ImputedFull()
				if !bytes.Equal(next.model.Append(nil), forest.Train(cols, d.Labels, fcfg).Append(nil)) {
					t.Error("Retrain's forest differs from the reference")
				}
				if !bytes.Equal(next.typeModel.Append(nil), refTypeHead(cols, types, fcfg).Append(nil)) {
					t.Error("Retrain's type head differs from one trained on its own binning")
				}
			})
		}
	}
}
