package forest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"opprentice/internal/ml/tree"
)

// RefTrain is Train as it stood before TrainOn took binned rows: learn a
// binner from the very matrix handed in, encode that matrix by one search per
// value, grow the trees one after another, and lay their nodes end to end.
// Its building blocks are checked against their own former bodies by the
// tree package's presort oracle; this one checks that TrainOn, given the
// codes of a shared presort's row range, assembles on its workers the forest
// the former Train built from a hand-cut copy of the matrix. Exported for the
// severity oracle in package forest_test.
func RefTrain(cols [][]float64, labels []bool, cfg Config) *Forest {
	cfg = cfg.withDefaults()
	binner := tree.NewBinner(cols, tree.MaxBins)
	codes := searchBin(binner, cols)
	f := &Forest{d: len(cols), importance: make([]float64, len(cols))}
	for t := 0; t < cfg.Trees; t++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		idx := make([]int, len(labels))
		for i := range idx {
			idx[i] = rng.Intn(len(labels))
		}
		nodes, imp := tree.Grow(binner, codes, labels, idx, tree.Config{FeaturesPerSplit: featuresPerSplit(len(cols)), Rng: rng})
		base := int32(len(f.flat))
		f.roots = append(f.roots, base)
		for _, nd := range nodes {
			if nd.Left >= 0 {
				nd.Left += base
			}
			f.flat = append(f.flat, nd)
		}
		for j, v := range imp {
			f.importance[j] += v
		}
	}
	total := 0.0
	for _, v := range f.importance {
		total += v
	}
	if total > 0 {
		for j := range f.importance {
			f.importance[j] /= total
		}
	}
	return f
}

// searchCode is the bucket of value v for feature j by binary search over
// b's edges: the number of edges strictly below v, NaN in bucket 0.
func searchCode(b *tree.Binner, j int, v float64) uint8 {
	if math.IsNaN(v) {
		return 0
	}
	return uint8(sort.Search(tree.MaxBins-1, func(k int) bool { return b.Threshold(j, uint8(k)) >= v }))
}

// searchBin encodes column-major cols by one searchCode per value.
func searchBin(b *tree.Binner, cols [][]float64) [][]uint8 {
	out := make([][]uint8, len(cols))
	for j, col := range cols {
		out[j] = make([]uint8, len(col))
		for i, v := range col {
			out[j][i] = searchCode(b, j, v)
		}
	}
	return out
}

// CheckTrainOracle asserts that TrainOn over the codes one presort of cols
// gives a row range encodes to the same record, with the same importances,
// as RefTrain on a hand-cut copy, for every row range a training round leaves
// out: none (also through Train), the five folds, the two halves.
func CheckTrainOracle(t *testing.T, cols [][]float64, labels []bool, cfg Config) {
	t.Helper()
	n := len(labels)
	ranges := [][2]int{{0, 0}, {0, n / 2}, {n / 2, n}}
	for fold := 0; fold < 5; fold++ {
		ranges = append(ranges, [2]int{fold * n / 5, (fold + 1) * n / 5})
	}
	ps := tree.Presort(cols)
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		cut := make([][]float64, len(cols))
		for j, col := range cols {
			cut[j] = append(append([]float64(nil), col[:lo]...), col[hi:]...)
		}
		cutLabels := append(append([]bool(nil), labels[:lo]...), labels[hi:]...)
		ref := RefTrain(cut, cutLabels, cfg)
		b, codes := ps.Bin(lo, hi, tree.MaxBins)
		got := TrainOn(b, codes, cutLabels, cfg)
		if !bytes.Equal(got.Append(nil), ref.Append(nil)) || !slices.Equal(got.Importances(), ref.Importances()) {
			t.Errorf("TrainOn without rows [%d,%d) differs from the reference", lo, hi)
		}
		if lo == hi {
			if got := Train(cols, labels, cfg); !bytes.Equal(got.Append(nil), ref.Append(nil)) || !slices.Equal(got.Importances(), ref.Importances()) {
				t.Error("Train differs from the reference")
			}
		}
	}
}

// TestTrainMatchesReference runs the oracle on the binner's edge shapes (no
// edge, one, a handful, all 255) at two ensemble sizes and seeds, and checks
// every one-vs-rest head of TrainMulti, all off one binning, against a
// reference forest on its own labels and seed.
func TestTrainMatchesReference(t *testing.T) {
	cols, labels, classes := edgeFixture(rand.New(rand.NewSource(equivalenceSeed)), 900)
	for i, cfg := range []Config{
		{Trees: 7, Seed: equivalenceSeed},
		{Trees: 3, Seed: equivalenceSeed + 1},
	} {
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) { CheckTrainOracle(t, cols, labels, cfg) })
	}

	cfg := Config{Trees: 5, Seed: equivalenceSeed}
	mc := trainMulti(cols, classes, cfg)
	if len(mc.heads) != 3 {
		t.Fatalf("%d heads, want 3", len(mc.heads))
	}
	for k, code := range mc.classes {
		oneVsRest := make([]bool, len(classes))
		for i, c := range classes {
			oneVsRest[i] = c == code
		}
		hcfg := cfg
		hcfg.Seed += int64(k+1) * headSeedStride
		if !bytes.Equal(mc.heads[k].Append(nil), RefTrain(cols, oneVsRest, hcfg).Append(nil)) {
			t.Errorf("head %d (class %d) differs from the reference", k, code)
		}
	}
}

// trainMulti trains a type head on one presort and one binning of cols.
func trainMulti(cols [][]float64, classes []uint8, cfg Config) *MultiClass {
	b, codes := tree.Presort(cols).Bin(0, 0, tree.MaxBins)
	return TrainMulti(b, codes, classes, cfg)
}
