// Package bayes implements the Gaussian naive Bayes classifier that Fig. 10
// compares against random forests: per-feature Gaussians per class under a
// feature-independence assumption. Its log-odds serve as anomaly scores.
package bayes

import (
	"fmt"
	"math"
)

// Model is a trained Gaussian naive Bayes classifier.
type Model struct {
	priorLogOdds float64
	mean         [2][]float64 // [class][feature]
	variance     [2][]float64
}

// Train fits class-conditional Gaussians on column-major features
// (cols[j][i] is feature j of sample i). Both classes must be present.
func Train(cols [][]float64, labels []bool) *Model {
	d := len(cols)
	if d == 0 {
		panic("bayes: no features")
	}
	n := len(cols[0])
	if len(labels) != n || n == 0 {
		panic(fmt.Sprintf("bayes: %d labels for %d samples", len(labels), n))
	}
	var count [2]int
	for _, l := range labels {
		if l {
			count[1]++
		} else {
			count[0]++
		}
	}
	if count[0] == 0 || count[1] == 0 {
		panic("bayes: training set must contain both classes")
	}
	m := &Model{
		priorLogOdds: math.Log(float64(count[1])) - math.Log(float64(count[0])),
	}
	for c := 0; c < 2; c++ {
		m.mean[c] = make([]float64, d)
		m.variance[c] = make([]float64, d)
	}
	for j, col := range cols {
		var sum [2]float64
		for i, v := range col {
			c := classOf(labels[i])
			sum[c] += v
		}
		for c := 0; c < 2; c++ {
			m.mean[c][j] = sum[c] / float64(count[c])
		}
		var ss [2]float64
		for i, v := range col {
			c := classOf(labels[i])
			dv := v - m.mean[c][j]
			ss[c] += dv * dv
		}
		for c := 0; c < 2; c++ {
			m.variance[c][j] = ss[c]/float64(count[c]) + 1e-9
		}
	}
	return m
}

func classOf(anomalous bool) int {
	if anomalous {
		return 1
	}
	return 0
}

// ScoreAll scores every sample of a column-major feature matrix, returning
// each sample's anomaly log-odds.
func (m *Model) ScoreAll(cols [][]float64) []float64 {
	if len(cols) != len(m.mean[0]) {
		panic(fmt.Sprintf("bayes: matrix has %d features, want %d", len(cols), len(m.mean[0])))
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	out := make([]float64, n)
	for i := range out {
		s := m.priorLogOdds
		for j := range cols {
			v := cols[j][i]
			s += logGauss(v, m.mean[1][j], m.variance[1][j]) -
				logGauss(v, m.mean[0][j], m.variance[0][j])
		}
		out[i] = s
	}
	return out
}

func logGauss(x, mu, variance float64) float64 {
	d := x - mu
	return -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
}
