package bayes

import (
	"math"
	"math/rand"
	"testing"

	"opprentice/internal/stats"
)

func makeGaussians(n int, rng *rand.Rand) (cols [][]float64, labels []bool) {
	cols = [][]float64{make([]float64, n), make([]float64, n)}
	labels = make([]bool, n)
	for i := 0; i < n; i++ {
		anomalous := rng.Intn(10) == 0
		labels[i] = anomalous
		mu := 0.0
		if anomalous {
			mu = 3
		}
		cols[0][i] = mu + rng.NormFloat64()
		cols[1][i] = mu + rng.NormFloat64()
	}
	return cols, labels
}

func TestBayesSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols, labels := makeGaussians(3000, rng)
	m := Train(cols, labels)
	testCols, testLabels := makeGaussians(1000, rng)
	if auc := stats.AUCPR(m.ScoreAll(testCols), testLabels); auc < 0.85 {
		t.Errorf("AUCPR = %v, want ≥ 0.85", auc)
	}
}

func TestBayesPriorReflectsImbalance(t *testing.T) {
	cols := [][]float64{{0, 0, 0, 0, 0, 0, 0, 0, 0, 5}}
	labels := []bool{false, false, false, false, false, false, false, false, false, true}
	m := Train(cols, labels)
	if m.priorLogOdds >= 0 {
		t.Errorf("prior log-odds = %v, want negative for rare anomalies", m.priorLogOdds)
	}
}

func TestBayesPanics(t *testing.T) {
	cases := []func(){
		func() { Train(nil, nil) },
		func() { Train([][]float64{{1, 2}}, []bool{true}) },
		func() { Train([][]float64{{1, 2}}, []bool{true, true}) }, // one class
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

func TestBayesScorePanicsOnRowShape(t *testing.T) {
	m := Train([][]float64{{0, 1}}, []bool{false, true})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.ScoreAll([][]float64{{1}, {2}})
}

func TestBayesConstantFeatureFinite(t *testing.T) {
	cols := [][]float64{{3, 3, 3, 3}, {0, 1, 2, 10}}
	labels := []bool{false, false, false, true}
	m := Train(cols, labels)
	s := m.ScoreAll([][]float64{{3}, {10}})[0]
	if math.IsNaN(s) || math.IsInf(s, 0) {
		t.Errorf("score = %v, want finite", s)
	}
}
