package linear

import (
	"math/rand"
	"testing"

	"opprentice/internal/stats"
)

func makeSeparable(n int, rng *rand.Rand) (cols [][]float64, labels []bool) {
	cols = [][]float64{make([]float64, n), make([]float64, n)}
	labels = make([]bool, n)
	for i := 0; i < n; i++ {
		anomalous := rng.Intn(8) == 0
		labels[i] = anomalous
		shift := 0.0
		if anomalous {
			shift = 3
		}
		cols[0][i] = shift + rng.NormFloat64()*0.5
		cols[1][i] = shift + rng.NormFloat64()*0.5
	}
	return cols, labels
}

func TestLogisticSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols, labels := makeSeparable(2000, rng)
	m := Train(cols, labels, Config{Kind: Logistic, Seed: 1})
	testCols, testLabels := makeSeparable(800, rng)
	if auc := stats.AUCPR(m.ScoreAll(testCols), testLabels); auc < 0.95 {
		t.Errorf("logistic AUCPR = %v, want ≥ 0.95", auc)
	}
}

func TestSVMSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cols, labels := makeSeparable(2000, rng)
	m := Train(cols, labels, Config{Kind: SVM, Seed: 2})
	testCols, testLabels := makeSeparable(800, rng)
	if auc := stats.AUCPR(m.ScoreAll(testCols), testLabels); auc < 0.95 {
		t.Errorf("SVM AUCPR = %v, want ≥ 0.95", auc)
	}
}

func TestConstantFeatureDoesNotBlowUp(t *testing.T) {
	cols := [][]float64{{5, 5, 5, 5, 5, 5}, {0, 1, 0, 1, 0, 6}}
	labels := []bool{false, false, false, false, false, true}
	m := Train(cols, labels, Config{Kind: Logistic, Seed: 4})
	s := m.ScoreAll([][]float64{{5}, {6}})[0]
	if s != s { // NaN check
		t.Error("score is NaN with constant feature")
	}
}

func TestTrainPanicsOnBadShapes(t *testing.T) {
	cases := []func(){
		func() { Train(nil, nil, Config{}) },
		func() { Train([][]float64{{1, 2}}, []bool{true}, Config{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestScorePanicsOnRowShape(t *testing.T) {
	m := Train([][]float64{{0, 1, 0, 1}}, []bool{false, true, false, true}, Config{Seed: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.ScoreAll([][]float64{{1}, {2}})
}

func TestKindString(t *testing.T) {
	if Logistic.String() != "logistic_regression" || SVM.String() != "linear_svm" {
		t.Error("kind names wrong")
	}
}

func TestDeterministicSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cols, labels := makeSeparable(400, rng)
	a := Train(cols, labels, Config{Kind: SVM, Seed: 11})
	b := Train(cols, labels, Config{Kind: SVM, Seed: 11})
	sa, sb := a.ScoreAll(cols), b.ScoreAll(cols)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed diverges")
		}
	}
}
