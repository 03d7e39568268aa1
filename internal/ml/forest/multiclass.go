package forest

import (
	"fmt"
	"sort"

	"opprentice/internal/ml/tree"
)

// MultiClass is a one-vs-rest multi-class head built from binary random
// forests: one forest per class code present in the training labels, sharing
// the 133-severity feature matrix with the verdict forest. Prediction is the
// argmax of the per-class vote fractions, with an abstain floor: when no
// class clears 0.5 the head predicts class 0 ("none").
type MultiClass struct {
	classes []uint8
	heads   []*Forest
}

// multiAbstain is the minimum winning vote fraction: below it the head
// abstains and predicts class 0. One-vs-rest forests are each trained on a
// heavily imbalanced binary problem, so a sub-majority winner means "none of
// the heads recognized this point".
const multiAbstain = 0.5

// headSeedStride decorrelates the per-class forests: head k trains with
// cfg.Seed + k·headSeedStride so no two heads share per-tree RNG streams.
const headSeedStride = 7_777_777

// TrainMulti trains a one-vs-rest multi-class head on rows binned by b (the
// heads, and the verdict forest trained beside them, share the one binning;
// see TrainOn) and per-row class codes (0 = none). One binary forest is
// trained per non-zero class code that has at least one positive and one
// negative row; codes absent from the labels get no head and can never be
// predicted. It returns nil when no trainable class exists (all rows are
// class 0, or a single class covers every row) — callers treat a nil head as
// "typing unavailable".
func TrainMulti(b *tree.Binner, codes [][]uint8, classes []uint8, cfg Config) *MultiClass {
	if len(codes) == 0 || len(classes) != len(codes[0]) {
		panic(fmt.Sprintf("forest: %d class labels for the binned rows", len(classes)))
	}
	present := map[uint8]int{}
	for _, c := range classes {
		present[c]++
	}
	trainable := make([]uint8, 0, len(present))
	for c, n := range present {
		if c == 0 || n == len(classes) {
			continue // class 0 is the abstain target; a class covering every row has no negatives
		}
		trainable = append(trainable, c)
	}
	if len(trainable) == 0 {
		return nil
	}
	sort.Slice(trainable, func(i, j int) bool { return trainable[i] < trainable[j] })
	mc := &MultiClass{classes: trainable, heads: make([]*Forest, len(trainable))}
	labels := make([]bool, len(classes))
	for k, code := range trainable {
		for i, c := range classes {
			labels[i] = c == code
		}
		hcfg := cfg
		hcfg.Seed = cfg.Seed + int64(k+1)*headSeedStride
		mc.heads[k] = TrainOn(b, codes, labels, hcfg)
	}
	return mc
}

// PredictRow classifies one feature row: the class whose head votes the
// highest fraction, or 0 when no head clears the abstain floor. It allocates
// nothing (each head's Prob is allocation-free), so it is
// safe on the scoring hot path.
func (mc *MultiClass) PredictRow(row []float64) (uint8, float64) {
	best, bestProb := uint8(0), 0.0
	for k, h := range mc.heads {
		if p := h.Prob(row); p > bestProb {
			best, bestProb = mc.classes[k], p
		}
	}
	if bestProb < multiAbstain {
		return 0, bestProb
	}
	return best, bestProb
}
