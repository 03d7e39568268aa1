package forest_test

import (
	"testing"

	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/tree"
)

// TestTrainMatchesReferenceOnSeverities runs the training oracle at the repo
// benchmark's shape: every fit of a round, off one presort of real
// severities, saves the bytes the former Train saved from a hand-cut copy.
func TestTrainMatchesReferenceOnSeverities(t *testing.T) {
	cols, labels, _, cfg := severityFixture(t)
	forest.CheckTrainOracle(t, cols, labels, cfg)
}

// BenchmarkForestTrain is the fit half of a training round at the repo
// benchmark's shape (severityFixture): "fit" is one Train — a retrain's
// forest, presort included; "round" is what a series' first train fits — one
// presort, the main forest and the five cross-validation folds off it;
// "typed_round" is the fit of a round with typed labels — one presort and
// one binning, the verdict forest and the type head's one-vs-rest forests
// (TrainMulti) off it. The
// prologue's two stages, which fan out over the columns, run alone too:
// "presort" sorts every column, "bin" bins all rows off one presort, and
// "bin_fold" the rows outside one cross-validation fold.
func BenchmarkForestTrain(b *testing.B) {
	cols, labels, types, cfg := severityFixture(b)
	n := len(labels)
	b.Run("fit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forest.Train(cols, labels, cfg)
		}
	})
	b.Run("round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ps := tree.Presort(cols)
			binner, codes := ps.Bin(0, 0, tree.MaxBins)
			forest.TrainOn(binner, codes, labels, cfg)
			for fold := 0; fold < 5; fold++ {
				lo, hi := fold*n/5, (fold+1)*n/5
				binner, codes := ps.Bin(lo, hi, tree.MaxBins)
				forest.TrainOn(binner, codes, append(labels[:lo:lo], labels[hi:]...), cfg)
			}
		}
	})
	b.Run("typed_round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			binner, codes := tree.Presort(cols).Bin(0, 0, tree.MaxBins)
			forest.TrainOn(binner, codes, labels, cfg)
			if forest.TrainMulti(binner, codes, types, cfg) == nil {
				b.Fatal("the fixture trains no type head")
			}
		}
	})
	b.Run("presort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree.Presort(cols)
		}
	})
	ps := tree.Presort(cols)
	for _, leg := range []struct {
		name   string
		lo, hi int
	}{{"bin", 0, 0}, {"bin_fold", 0, n / 5}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ps.Bin(leg.lo, leg.hi, tree.MaxBins)
			}
		})
	}
}
