// Package forest implements the random forest classifier Opprentice trains
// on detector severities (§4.4.2): an ensemble of fully grown CART trees,
// each trained on a bootstrap sample and considering a random √d feature
// subset at every split. The mean of the trees' leaf probabilities is the
// anomaly probability that the cThld of §4.5 thresholds.
package forest

import (
	"fmt"
	"math"
	"math/rand"

	"opprentice/internal/fanout"
	"opprentice/internal/ml/tree"
)

// Config controls forest training. The zero value trains the paper-style
// default: 60 trees. Every tree is fully grown and considers ⌈√d⌉ features
// per split, and the forest averages the trees' leaf probabilities, which is
// what the paper's scikit-learn implementation computes: smoother than the
// fraction of anomaly-voting trees §4.4.2 words, and calibrated across
// weekly retrains.
type Config struct {
	// Trees is the ensemble size (default 60).
	Trees int
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 60
	}
	return c
}

// Forest is a trained random forest: nothing but the flat node array its
// inference walks (roots[t] is tree t's root index), the feature count, and
// the gini importances. The per-tree node arrays and the binner's quantile
// edges that growth works on are scratch, dropped once buildFlat has packed
// them; the flat array and the feature count are also all the artifact codec
// stores.
type Forest struct {
	flat  []flatNode
	roots []int32
	d     int
	// importance is the normalized gini importance per feature, summed once
	// at the end of training; nil for a forest decoded from an artifact.
	importance []float64
}

// Train fits a forest on column-major features (cols[j][i] is feature j of
// sample i) and point labels. It panics on shape mismatches, which are
// always caller bugs.
func Train(cols [][]float64, labels []bool, cfg Config) *Forest {
	if len(cols) == 0 {
		panic("forest: no features")
	}
	return TrainOn(tree.Presort(cols), labels, 0, 0, cfg)
}

// TrainOn fits a forest on the rows of ps outside [lo, hi) — lo == hi trains
// on all of them — so that the fits of one training round (the main forest,
// each cross-validation fold, each one-vs-rest head) share one sort of the
// feature columns. labels holds one entry per row of ps. Each call still
// learns its own quantile edges from exactly the rows it trains on: the
// forest equals Train on a matrix with rows [lo, hi) cut out.
func TrainOn(ps *tree.Presorted, labels []bool, lo, hi int, cfg Config) *Forest {
	if len(labels) != ps.Rows() {
		panic(fmt.Sprintf("forest: %d labels for %d samples", len(labels), ps.Rows()))
	}
	if hi > lo {
		labels = append(labels[:lo:lo], labels[hi:]...)
	}
	n := len(labels)
	if n == 0 {
		panic("forest: no samples")
	}
	cfg = cfg.withDefaults()
	perSplit := featuresPerSplit(len(ps.Cols()))

	binner, binned := ps.Bin(lo, hi, tree.MaxBins)
	trees := make([]*tree.Tree, cfg.Trees)

	// Deterministic parallel training: every tree gets its own seeded rng;
	// a worker reuses one bootstrap buffer, which Grow only permutes.
	workers := fanout.Workers(cfg.Trees)
	idxs := make([]int, workers*n)
	fanout.Run(workers, cfg.Trees, func(w, t int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		idx := idxs[w*n : (w+1)*n]
		for i := range idx {
			idx[i] = rng.Intn(n) // bootstrap sample
		}
		trees[t] = tree.Grow(binned, labels, idx, tree.Config{FeaturesPerSplit: perSplit, Rng: rng})
	})
	return newForest(trees, binner)
}

// newForest keeps of grown trees what the forest serves: their flat node
// array and their summed importances.
func newForest(trees []*tree.Tree, binner *tree.Binner) *Forest {
	f := &Forest{d: binner.NumFeatures(), importance: importances(trees, binner.NumFeatures())}
	if err := f.buildFlat(trees, binner); err != nil {
		panic(err) // more features than a flat node indexes: a caller bug
	}
	return f
}

// featuresPerSplit is the per-split feature subset size over d features:
// ⌈√d⌉.
func featuresPerSplit(d int) int {
	return int(math.Ceil(math.Sqrt(float64(d))))
}

// importances sums the trees' gini importances per feature and normalizes
// the sums to 1 (all zeros if no tree ever split).
func importances(trees []*tree.Tree, d int) []float64 {
	sum := make([]float64, d)
	for _, t := range trees {
		for j, v := range t.Importances() {
			sum[j] += v
		}
	}
	total := 0.0
	for _, v := range sum {
		total += v
	}
	if total > 0 {
		for j := range sum {
			sum[j] /= total
		}
	}
	return sum
}

// Importances returns the mean gini importance per feature across the
// ensemble, normalized to sum to 1 (all zeros if no tree ever split; nil for
// a decoded forest, whose artifact keeps only what inference walks). The
// slice is the forest's own; callers must not modify it. Features with high
// importance are the detector configurations the forest actually relies on —
// the automated counterpart of reading Fig 5's tree.
func (f *Forest) Importances() []float64 {
	return f.importance
}

// Prob returns the anomaly probability of a single sample given as a dense
// feature row: the mean of the trees' leaf probabilities. It allocates
// nothing (the per-point hot path of online classification).
func (f *Forest) Prob(row []float64) float64 {
	if len(row) != f.d {
		panic(fmt.Sprintf("forest: row has %d features, want %d", len(row), f.d))
	}
	return f.probRow(row)
}

// ProbRowsInto classifies n = len(rows)/d samples packed row-major into
// rows (sample s occupies rows[s*d : (s+1)*d]) and writes their anomaly
// probabilities into out[:n]. It is the batched form of Prob — one call per
// ingest batch instead of one per point — and allocates nothing.
func (f *Forest) ProbRowsInto(rows []float64, d int, out []float64) {
	if d != f.d {
		panic(fmt.Sprintf("forest: rows have %d features, want %d", d, f.d))
	}
	n := len(rows) / d
	if len(rows) != n*d {
		panic(fmt.Sprintf("forest: %d row values not a multiple of %d features", len(rows), d))
	}
	if len(out) < n {
		panic(fmt.Sprintf("forest: out holds %d probabilities, need %d", len(out), n))
	}
	for s := 0; s < n; s++ {
		out[s] = f.probRow(rows[s*d : (s+1)*d])
	}
}

// probAllSerialThreshold is the sample count below which ProbAll stays on
// the calling goroutine: a sample costs roughly trees × depth node visits
// (~10⁴ ns), so spawning workers for a small replay window (the common
// weekly-retrain case) would cost more in scheduling than it saves.
const probAllSerialThreshold = 512

// ProbAll classifies every sample of a column-major feature matrix,
// returning one vote fraction per sample. Large batches cut the rows into one
// chunk per fanout worker; small windows run on the calling goroutine.
func (f *Forest) ProbAll(cols [][]float64) []float64 {
	if len(cols) != f.d {
		panic(fmt.Sprintf("forest: %d feature columns, want %d", len(cols), f.d))
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	out := make([]float64, n)
	workers := 1
	if n > probAllSerialThreshold {
		workers = fanout.Workers(n)
	}
	chunk := (n + workers - 1) / workers
	fanout.Run(workers, workers, func(_, c int) {
		lo := min(c*chunk, n)
		f.probColsRange(cols, out, lo, min(lo+chunk, n))
	})
	return out
}
