// Package tree implements CART decision trees (gini impurity) over
// quantile-binned features — the base learner of the random forest (§4.4.2)
// and the standalone decision-tree comparison of Fig. 10. Binning features
// into at most 256 quantile buckets turns each split search into a counting
// pass, which keeps fully-grown forests on months of KPI data fast without
// changing which splits are found in practice.
//
// Throughout this package feature matrices are column-major:
// cols[j][i] is feature j of sample i.
package tree

import "math"

// MaxBins is the number of quantile buckets per feature (fits uint8 codes).
const MaxBins = 256

// Binner holds per-feature quantile edges learned from training data. The
// bucket code of a value v of feature j is the number of edges strictly
// below v, NaN taking code 0 ("no evidence of anomaly"); Presorted.Bin
// encodes the training rows, and a grown split keeps its bucket's upper edge
// (Threshold), so nothing else ever encodes a value.
type Binner struct {
	edges [][]float64 // edges[j] is sorted, strictly ascending
}

// NewBinner learns quantile edges (at most maxBins-1 per feature, deduped)
// from the column-major training features. maxBins is clamped to [2, 256].
func NewBinner(cols [][]float64, maxBins int) *Binner {
	b, _ := Presort(cols).Bin(0, 0, maxBins)
	return b
}

// Threshold returns the raw-value upper boundary of bucket code for feature
// j; points with value ≤ Threshold(j, code) go to buckets ≤ code. For the
// last bucket it returns +Inf.
func (b *Binner) Threshold(j int, code uint8) float64 {
	e := b.edges[j]
	if int(code) >= len(e) {
		return math.Inf(1)
	}
	return e[code]
}
