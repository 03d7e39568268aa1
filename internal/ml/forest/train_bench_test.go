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
	cols, labels, cfg := severityFixture(t)
	forest.CheckTrainOracle(t, cols, labels, cfg)
}

// BenchmarkForestTrain is the fit half of a training round at the repo
// benchmark's shape (severityFixture): "fit" is one Train — a retrain's
// forest, presort included; "round" is what a series' first train fits — one
// presort, the main forest and the five cross-validation folds off it.
func BenchmarkForestTrain(b *testing.B) {
	cols, labels, cfg := severityFixture(b)
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
			forest.TrainOn(ps, labels, 0, 0, cfg)
			for fold := 0; fold < 5; fold++ {
				forest.TrainOn(ps, labels, fold*n/5, (fold+1)*n/5, cfg)
			}
		}
	})
}
