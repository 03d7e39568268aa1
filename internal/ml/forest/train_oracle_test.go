package forest

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"opprentice/internal/ml/tree"
)

// RefTrain is Train as it stood before TrainOn: learn a binner from the very
// matrix handed in, encode that matrix by one search per value, grow the
// trees on the codes. Its building blocks are checked against their own
// former bodies by the tree package's presort oracle; this one checks that
// TrainOn, given a shared presort and a row range to leave out, assembles the
// forest the former Train built from a hand-cut copy of the matrix. Exported
// for the severity oracle in package forest_test.
func RefTrain(cols [][]float64, labels []bool, cfg Config) *Forest {
	return newForest(refGrow(cols, labels, cfg))
}

// refGrow is RefTrain's growth: the trees and the binner it packs.
func refGrow(cols [][]float64, labels []bool, cfg Config) ([]*tree.Tree, *tree.Binner) {
	cfg = cfg.withDefaults()
	binner := tree.NewBinner(cols, tree.MaxBins)
	binned := binner.Bin(cols)
	trees := make([]*tree.Tree, cfg.Trees)
	for t := range trees {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		idx := make([]int, len(labels))
		for i := range idx {
			idx[i] = rng.Intn(len(labels))
		}
		trees[t] = tree.Grow(binned, labels, idx, tree.Config{FeaturesPerSplit: featuresPerSplit(len(cols)), Rng: rng})
	}
	return trees, binner
}

// CheckTrainOracle asserts that TrainOn over one presort of cols encodes to
// the same record, with the same importances, as RefTrain on a hand-cut copy, for every row range a training
// round leaves out: none (also through Train), the five folds, the two
// halves.
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
		ref := RefTrain(cut, append(append([]bool(nil), labels[:lo]...), labels[hi:]...), cfg)
		got := TrainOn(ps, labels, lo, hi, cfg)
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
// every one-vs-rest head of TrainMulti against a reference forest on its own
// labels and seed.
func TestTrainMatchesReference(t *testing.T) {
	cols, labels, classes := edgeFixture(rand.New(rand.NewSource(equivalenceSeed)), 900)
	for i, cfg := range []Config{
		{Trees: 7, Seed: equivalenceSeed},
		{Trees: 3, Seed: equivalenceSeed + 1},
	} {
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) { CheckTrainOracle(t, cols, labels, cfg) })
	}

	cfg := Config{Trees: 5, Seed: equivalenceSeed}
	mc := TrainMulti(tree.Presort(cols), classes, cfg)
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
