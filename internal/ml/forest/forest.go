// Package forest implements the random forest classifier Opprentice trains
// on detector severities (§4.4.2): an ensemble of fully grown CART trees,
// each trained on a bootstrap sample and considering a random √d feature
// subset at every split, combined by majority vote. The vote fraction is
// the anomaly probability that the cThld of §4.5 thresholds.
package forest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"opprentice/internal/ml/tree"
)

// Config controls forest training. The zero value trains the paper-style
// default: 60 fully grown trees with √d features per split.
type Config struct {
	// Trees is the ensemble size (default 60).
	Trees int
	// MajorityVote makes Prob the fraction of trees whose leaf classifies
	// anomalous — the combination rule as §4.4.2 words it. The default
	// (false) averages the trees' leaf probabilities, which is what the
	// paper's scikit-learn implementation computes; it is smoother and
	// stays calibrated across weekly retrains.
	MajorityVote bool
	// FeaturesPerSplit is the per-split feature subset size
	// (default √d rounded up).
	FeaturesPerSplit int
	// MinLeaf is the minimum samples per leaf (default 1: fully grown).
	MinLeaf int
	// MaxDepth limits depth; 0 (default) grows fully.
	MaxDepth int
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) withDefaults(numFeatures int) Config {
	if c.Trees <= 0 {
		c.Trees = 60
	}
	if c.FeaturesPerSplit <= 0 {
		c.FeaturesPerSplit = int(math.Ceil(math.Sqrt(float64(numFeatures))))
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	return c
}

// Forest is a trained random forest.
type Forest struct {
	trees        []*tree.Tree
	binner       *tree.Binner
	majorityVote bool

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
	cfg = cfg.withDefaults(len(ps.Cols()))

	binner, binned := ps.Bin(lo, hi, tree.MaxBins)
	f := &Forest{trees: make([]*tree.Tree, cfg.Trees), binner: binner, majorityVote: cfg.MajorityVote}

	// Deterministic parallel training: every tree gets its own seeded rng.
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < cfg.Trees; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
			idx := make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(n) // bootstrap sample
			}
			f.trees[t] = tree.Grow(binned, labels, idx, tree.Config{
				MaxDepth:         cfg.MaxDepth,
				MinLeaf:          cfg.MinLeaf,
				FeaturesPerSplit: cfg.FeaturesPerSplit,
				Rng:              rng,
			})
		}(t)
	}
	wg.Wait()
	if err := f.buildFlat(); err != nil {
		panic(err) // Grow emits well-formed trees; only the feature count can be at fault
	}
	return f
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

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
// feature row: by default the mean of the trees' leaf probabilities, or the
// fraction of anomaly-voting trees under Config.MajorityVote (§4.4.2).
// It allocates nothing (the per-point hot path of online classification).
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
// returning one vote fraction per sample. Large batches chunk rows across
// GOMAXPROCS workers; small windows run serially to avoid goroutine
// overhead.
func (f *Forest) ProbAll(cols [][]float64) []float64 {
	if len(cols) != f.binner.NumFeatures() {
		panic(fmt.Sprintf("forest: %d feature columns, want %d", len(cols), f.binner.NumFeatures()))
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	out := make([]float64, n)
	if n <= probAllSerialThreshold {
		f.probColsRange(cols, out, 0, n)
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f.probColsRange(cols, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}
