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

// Forest is a trained random forest: the nodes of all its trees in one flat
// array (roots[t] is tree t's root index), the feature count, and the gini
// importances. Its trees grow straight into that node form, so the flat
// array and the feature count are all inference walks and all the artifact
// codec stores.
type Forest struct {
	flat  []tree.Node
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
	b, codes := tree.Presort(cols).Bin(0, 0, tree.MaxBins)
	return TrainOn(b, codes, labels, cfg)
}

// TrainOn fits a forest on rows binned by b: codes[j][i] is the bucket of
// feature j of row i (what tree.Presorted.Bin returns) and labels[i] row i's
// label. It is the one fit: the fits of a training round that train on the
// same rows — the verdict forest and every one-vs-rest head — share one
// binning of them, and a fit that leaves rows out (a cross-validation fold, a
// held-out half) bins what it keeps.
func TrainOn(b *tree.Binner, codes [][]uint8, labels []bool, cfg Config) *Forest {
	n := len(labels)
	if n == 0 {
		panic("forest: no samples")
	}
	if len(codes) > 0 && len(codes[0]) != n {
		panic(fmt.Sprintf("forest: %d labels for %d samples", n, len(codes[0])))
	}
	cfg = cfg.withDefaults()
	perSplit := featuresPerSplit(len(codes))
	nodes := make([][]tree.Node, cfg.Trees)
	imps := make([][]float64, cfg.Trees)

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
		nodes[t], imps[t] = tree.Grow(b, codes, labels, idx, tree.Config{FeaturesPerSplit: perSplit, Rng: rng})
	})

	// Each tree's array follows the ones before it, its child indices offset
	// by its base; the importances are summed in tree order and normalized
	// to 1 (all zeros if no tree ever split).
	total := 0
	for _, t := range nodes {
		total += len(t)
	}
	f := &Forest{flat: make([]tree.Node, 0, total), roots: make([]int32, cfg.Trees), d: len(codes), importance: make([]float64, len(codes))}
	for t, tn := range nodes {
		base := int32(len(f.flat))
		f.roots[t] = base
		for _, nd := range tn {
			if nd.Left >= 0 {
				nd.Left += base
			}
			f.flat = append(f.flat, nd)
		}
		for j, v := range imps[t] {
			f.importance[j] += v
		}
	}
	sum := 0.0
	for _, v := range f.importance {
		sum += v
	}
	if sum > 0 {
		for j := range f.importance {
			f.importance[j] /= sum
		}
	}
	return f
}

// featuresPerSplit is the per-split feature subset size over d features:
// ⌈√d⌉.
func featuresPerSplit(d int) int {
	return int(math.Ceil(math.Sqrt(float64(d))))
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

// probRow runs the whole ensemble over one dense feature row and returns the
// mean leaf probability: tree.Prob from each root of the one node array,
// whose raw thresholds spare inference any binning. It reads only the few
// dozen features the walked splits test and allocates nothing.
func (f *Forest) probRow(row []float64) float64 {
	sum := 0.0
	for _, root := range f.roots {
		sum += tree.Prob(f.flat, root, row)
	}
	return sum / float64(len(f.roots))
}

// probColsRange classifies samples [lo, hi) of the column-major feature
// matrix into out, gathering each sample into a row for probRow (consecutive
// samples share the cache lines of every column, so the gather stays in L1).
func (f *Forest) probColsRange(cols [][]float64, out []float64, lo, hi int) {
	row := make([]float64, len(cols))
	for s := lo; s < hi; s++ {
		for j, col := range cols {
			row[j] = col[s]
		}
		out[s] = f.probRow(row)
	}
}
