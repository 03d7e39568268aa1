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

// Forest is a trained random forest.
type Forest struct {
	trees  []*tree.Tree
	binner *tree.Binner

	// flat packs every tree's nodes into one contiguous array (roots[t] is
	// tree t's root index), built once after training or loading. All
	// inference walks this array iteratively; trees is kept only for
	// importances, serialization, and introspection.
	flat  []flatNode
	roots []int32
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
	f := &Forest{trees: make([]*tree.Tree, cfg.Trees), binner: binner}

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
		f.trees[t] = tree.Grow(binned, labels, idx, tree.Config{FeaturesPerSplit: perSplit, Rng: rng})
	})
	if err := f.buildFlat(); err != nil {
		panic(err) // Grow emits well-formed trees; only the feature count can be at fault
	}
	return f
}

// featuresPerSplit is the per-split feature subset size over d features:
// ⌈√d⌉.
func featuresPerSplit(d int) int {
	return int(math.Ceil(math.Sqrt(float64(d))))
}

// Importances returns the mean gini importance per feature across the
// ensemble, normalized to sum to 1 (all zeros if no tree ever split).
// Features with high importance are the detector configurations the forest
// actually relies on — the automated counterpart of reading Fig 5's tree.
func (f *Forest) Importances() []float64 {
	if len(f.trees) == 0 {
		return nil
	}
	sum := make([]float64, f.binner.NumFeatures())
	for _, t := range f.trees {
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

// Prob returns the anomaly probability of a single sample given as a dense
// feature row: the mean of the trees' leaf probabilities. It allocates
// nothing (the per-point hot path of online classification).
func (f *Forest) Prob(row []float64) float64 {
	if len(row) != f.binner.NumFeatures() {
		panic(fmt.Sprintf("forest: row has %d features, want %d", len(row), f.binner.NumFeatures()))
	}
	return f.probRow(row)
}

// ProbRowsInto classifies n = len(rows)/d samples packed row-major into
// rows (sample s occupies rows[s*d : (s+1)*d]) and writes their anomaly
// probabilities into out[:n]. It is the batched form of Prob — one call per
// ingest batch instead of one per point — and allocates nothing.
func (f *Forest) ProbRowsInto(rows []float64, d int, out []float64) {
	if d != f.binner.NumFeatures() {
		panic(fmt.Sprintf("forest: rows have %d features, want %d", d, f.binner.NumFeatures()))
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
	if len(cols) != f.binner.NumFeatures() {
		panic(fmt.Sprintf("forest: %d feature columns, want %d", len(cols), f.binner.NumFeatures()))
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
