// Package linear implements the logistic-regression and linear-SVM
// classifiers that Fig. 10 compares against random forests. Both are
// trained by SGD on z-scored features with class-balanced weighting (the
// anomaly class is tiny, §3.2); their decision values serve as anomaly
// scores for PR-curve evaluation.
package linear

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind selects the loss.
type Kind int

// The two linear models.
const (
	// Logistic trains with the logistic (cross-entropy) loss.
	Logistic Kind = iota
	// SVM trains with the hinge loss (linear support vector machine).
	SVM
)

// String names the kind.
func (k Kind) String() string {
	if k == SVM {
		return "linear_svm"
	}
	return "logistic_regression"
}

// Config controls training.
type Config struct {
	Kind Kind
	Seed int64
}

// The SGD schedule: epochs over the data, the initial learning rate (decayed
// per step) and the L2 penalty.
const (
	epochs       = 40
	learningRate = 0.1
	l2           = 1e-4
)

// Model is a trained linear classifier.
type Model struct {
	kind      Kind
	w         []float64
	b         float64
	mean, std []float64
}

// Train fits the model on column-major features (cols[j][i] is feature j of
// sample i).
func Train(cols [][]float64, labels []bool, cfg Config) *Model {
	d := len(cols)
	if d == 0 {
		panic("linear: no features")
	}
	n := len(cols[0])
	if len(labels) != n || n == 0 {
		panic(fmt.Sprintf("linear: %d labels for %d samples", len(labels), n))
	}
	m := &Model{kind: cfg.Kind, w: make([]float64, d), mean: make([]float64, d), std: make([]float64, d)}
	for j, col := range cols {
		mu, sd := meanStd(col)
		m.mean[j] = mu
		if sd < 1e-12 {
			sd = 1
		}
		m.std[j] = sd
	}
	// Class-balanced weights.
	pos := 0
	for _, l := range labels {
		if l {
			pos++
		}
	}
	wPos, wNeg := 1.0, 1.0
	if pos > 0 && pos < n {
		wPos = float64(n) / (2 * float64(pos))
		wNeg = float64(n) / (2 * float64(n-pos))
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	order := rng.Perm(n)
	x := make([]float64, d)
	step := 0
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			step++
			lr := learningRate / (1 + 1e-4*float64(step))
			for j := 0; j < d; j++ {
				x[j] = (cols[j][i] - m.mean[j]) / m.std[j]
			}
			z := m.b
			for j := 0; j < d; j++ {
				z += m.w[j] * x[j]
			}
			y := -1.0
			cw := wNeg
			if labels[i] {
				y = 1
				cw = wPos
			}
			var g float64 // dLoss/dz
			switch cfg.Kind {
			case SVM:
				if y*z < 1 {
					g = -y
				}
			default: // Logistic with y ∈ {-1, +1}: g = -y σ(-yz)
				g = -y / (1 + math.Exp(y*z))
			}
			if g != 0 {
				for j := 0; j < d; j++ {
					m.w[j] -= lr * (cw*g*x[j] + l2*m.w[j])
				}
				m.b -= lr * cw * g
			} else {
				for j := 0; j < d; j++ {
					m.w[j] -= lr * l2 * m.w[j]
				}
			}
		}
	}
	return m
}

// ScoreAll scores every sample of a column-major feature matrix, returning
// each sample's decision value; higher means more anomalous.
func (m *Model) ScoreAll(cols [][]float64) []float64 {
	if len(cols) != len(m.w) {
		panic(fmt.Sprintf("linear: matrix has %d features, want %d", len(cols), len(m.w)))
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		z := m.b
		for j := range cols {
			z += m.w[j] * (cols[j][i] - m.mean[j]) / m.std[j]
		}
		out[i] = z
	}
	return out
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	ss := 0.0
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}
