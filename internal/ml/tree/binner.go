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

import (
	"fmt"
	"math"
	"sort"
)

// MaxBins is the number of quantile buckets per feature (fits uint8 codes).
const MaxBins = 256

// Binner maps raw feature values to uint8 bucket codes using per-feature
// quantile edges learned from training data.
type Binner struct {
	edges [][]float64 // edges[j] is sorted; code = #edges < v (see Code)
}

// NewBinner learns quantile edges (at most maxBins-1 per feature, deduped)
// from the column-major training features. maxBins is clamped to [2, 256].
func NewBinner(cols [][]float64, maxBins int) *Binner {
	b, _ := Presort(cols).Bin(0, 0, maxBins)
	return b
}

// NumFeatures returns the number of features the binner was built for.
func (b *Binner) NumFeatures() int { return len(b.edges) }

// Code returns the bucket of value v for feature j: the number of edges
// strictly below v. NaN maps to bucket 0 (treat missing severities as
// "no evidence of anomaly").
func (b *Binner) Code(j int, v float64) uint8 {
	if math.IsNaN(v) {
		return 0
	}
	e := b.edges[j]
	// First index with edge >= v ⇒ v sits in that bucket.
	return uint8(sort.SearchFloat64s(e, v))
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

// Bin encodes column-major features into column-major uint8 codes, one
// search per value. It is for rows the binner was not learned from (a held-out
// fold); the training rows come encoded from Presorted.Bin.
func (b *Binner) Bin(cols [][]float64) [][]uint8 {
	if len(cols) != len(b.edges) {
		panic(fmt.Sprintf("tree: binner built for %d features, got %d", len(b.edges), len(cols)))
	}
	out := make([][]uint8, len(cols))
	for j, col := range cols {
		codes := make([]uint8, len(col))
		for i, v := range col {
			codes[i] = b.Code(j, v)
		}
		out[j] = codes
	}
	return out
}
