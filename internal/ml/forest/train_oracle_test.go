package forest

import (
	"bytes"
	"fmt"
	"math/rand"
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
	cfg = cfg.withDefaults(len(cols))
	binner := tree.NewBinner(cols, tree.MaxBins)
	binned := binner.Bin(cols)
	f := &Forest{trees: make([]*tree.Tree, cfg.Trees), binner: binner, majorityVote: cfg.MajorityVote}
	for t := range f.trees {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		idx := make([]int, len(labels))
		for i := range idx {
			idx[i] = rng.Intn(len(labels))
		}
		f.trees[t] = tree.Grow(binned, labels, idx, tree.Config{
			MaxDepth:         cfg.MaxDepth,
			MinLeaf:          cfg.MinLeaf,
			FeaturesPerSplit: cfg.FeaturesPerSplit,
			Rng:              rng,
		})
	}
	if err := f.buildFlat(); err != nil {
		panic(err)
	}
	return f
}

// CheckTrainOracle asserts that TrainOn over one presort of cols saves the
// same bytes as RefTrain on a hand-cut copy, for every row range a training
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
		want := saveBytes(t, RefTrain(cut, append(append([]bool(nil), labels[:lo]...), labels[hi:]...), cfg))
		if got := saveBytes(t, TrainOn(ps, labels, lo, hi, cfg)); !bytes.Equal(got, want) {
			t.Errorf("TrainOn without rows [%d,%d) saves %d bytes that differ from the reference's %d", lo, hi, len(got), len(want))
		}
		if lo == hi {
			if got := saveBytes(t, Train(cols, labels, cfg)); !bytes.Equal(got, want) {
				t.Errorf("Train saves %d bytes that differ from the reference's %d", len(got), len(want))
			}
		}
	}
}

func saveBytes(t *testing.T, f *Forest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainMatchesReference runs the oracle on the binner's edge shapes (no
// edge, one, a handful, all 255) under both combination rules and a depth
// and leaf limit, and checks every one-vs-rest head of TrainMulti against a
// reference forest on its own labels and seed.
func TestTrainMatchesReference(t *testing.T) {
	cols, labels, classes := edgeFixture(rand.New(rand.NewSource(equivalenceSeed)), 900)
	for i, cfg := range []Config{
		{Trees: 7, Seed: equivalenceSeed},
		{Trees: 3, Seed: equivalenceSeed, MajorityVote: true, MaxDepth: 4, MinLeaf: 5, FeaturesPerSplit: 2},
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
		if !bytes.Equal(saveBytes(t, mc.heads[k]), saveBytes(t, RefTrain(cols, oneVsRest, hcfg))) {
			t.Errorf("head %d (class %d) differs from the reference", k, code)
		}
	}
}
