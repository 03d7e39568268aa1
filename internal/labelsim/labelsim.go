// Package labelsim models the operators who label anomalies with the tool of
// §4.2. Two aspects matter for the reproduction: (1) labels are imperfect —
// window boundaries get extended or narrowed and short windows are
// occasionally missed, the noise §4.2 argues machine learning tolerates;
// (2) labeling is fast — the time grows with the number of anomalous
// *windows*, not anomalous points, which is Fig. 14's result.
package labelsim

import (
	"math/rand"

	"opprentice/internal/timeseries"
)

// Operator simulates one labeling operator.
type Operator struct {
	// BoundaryJitter is the maximum number of points each window boundary
	// is moved outward or inward.
	BoundaryJitter int
	// MissBelow and MissProb: windows shorter than MissBelow points are
	// missed entirely with probability MissProb.
	MissBelow int
	MissProb  float64
	// Seed makes the labeling pass deterministic.
	Seed int64
}

// DefaultOperator returns a careful but human operator: boundaries off by up
// to 2 points, 10 % of 1–2 point blips missed.
func DefaultOperator() Operator {
	return Operator{BoundaryJitter: 2, MissBelow: 3, MissProb: 0.1, Seed: 1}
}

// Label converts ground-truth labels into what the operator would actually
// produce with the labeling tool: one label action per anomalous window,
// with noisy boundaries.
func (o Operator) Label(truth timeseries.Labels) timeseries.Labels {
	rng := rand.New(rand.NewSource(o.Seed))
	var out []timeseries.Window
	for _, w := range truth.Windows() {
		if w.Len() < o.MissBelow && rng.Float64() < o.MissProb {
			continue
		}
		j := o.BoundaryJitter
		if j > 0 {
			w.Start += rng.Intn(2*j+1) - j
			w.End += rng.Intn(2*j+1) - j
		}
		if w.End <= w.Start {
			w.End = w.Start + 1
		}
		out = append(out, w)
	}
	return timeseries.FromWindows(len(truth), out)
}

// TimeModel maps a month's anomalous-window count to labeling minutes.
// Fig. 14 shows an affine relationship with every month under six minutes.
type TimeModel struct {
	BaseMinutes      float64 // loading, navigating, zooming
	MinutesPerWindow float64 // one click-and-drag per window
}

// DefaultTimeModel matches Fig. 14: ≈1 minute of navigation plus ≈12 seconds
// per anomalous window, keeping a typical month under 6 minutes.
func DefaultTimeModel() TimeModel {
	return TimeModel{BaseMinutes: 1.0, MinutesPerWindow: 0.2}
}

// MonthMinutes returns the modeled labeling time for one month of data with
// the given number of anomalous windows.
func (m TimeModel) MonthMinutes(windows int) float64 {
	return m.BaseMinutes + m.MinutesPerWindow*float64(windows)
}

// MonthStat describes one month of labeling work.
type MonthStat struct {
	Month   int
	Windows int
	Minutes float64
}

// Months splits the labels into calendar months (4-week blocks, as the
// paper's weekly cadence implies), counts anomalous windows per month, and
// applies the time model. Windows spanning a boundary count toward the month
// they start in.
func (m TimeModel) Months(labels timeseries.Labels, pointsPerWeek int) []MonthStat {
	ppm := 4 * pointsPerWeek
	if ppm <= 0 {
		return nil
	}
	nMonths := (len(labels) + ppm - 1) / ppm
	counts := make([]int, nMonths)
	for _, w := range labels.Windows() {
		counts[w.Start/ppm]++
	}
	out := make([]MonthStat, nMonths)
	for i, c := range counts {
		out[i] = MonthStat{Month: i + 1, Windows: c, Minutes: m.MonthMinutes(c)}
	}
	return out
}

// TotalMinutes sums the modeled labeling time over all months.
func (m TimeModel) TotalMinutes(labels timeseries.Labels, pointsPerWeek int) float64 {
	total := 0.0
	for _, ms := range m.Months(labels, pointsPerWeek) {
		total += ms.Minutes
	}
	return total
}

// QueryOracle answers the label queries raised by the active-learning
// subsystem (internal/active) against ground truth, within a labeling-time
// budget priced by the Fig. 14 model: each sitting costs BaseMinutes of
// loading and navigation, and each answered query costs MinutesPerWindow —
// per *window*, never per point, exactly like the labeling tool of §4.2.
//
// The zero value is not usable; construct with NewQueryOracle. Not safe for
// concurrent use.
type QueryOracle struct {
	// Miss is the probability a truly-anomalous query window is answered
	// "normal" anyway — the operator glances at the chart and misses the
	// blip. Zero for a perfect oracle.
	Miss float64

	truth  timeseries.Labels
	model  TimeModel
	budget float64 // total minutes; <= 0 means unlimited
	rng    *rand.Rand

	spent    float64
	answered int
	sitting  bool
}

// NewQueryOracle builds an oracle over ground-truth labels. budgetMinutes
// caps the total modeled labeling time (<= 0 = unlimited); seed makes miss
// decisions deterministic.
func NewQueryOracle(truth timeseries.Labels, model TimeModel, budgetMinutes float64, seed int64) *QueryOracle {
	return &QueryOracle{
		truth:  truth,
		model:  model,
		budget: budgetMinutes,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// affords reports whether the budget covers cost more minutes.
func (o *QueryOracle) affords(cost float64) bool {
	return o.budget <= 0 || o.spent+cost <= o.budget+1e-9
}

// BeginSitting opens one labeling sitting (e.g. a week's query review),
// charging the base navigation cost. Returns false — charging nothing — when
// the remaining budget cannot cover the base cost plus at least one answer;
// a sitting that could answer nothing would waste the operator's time.
func (o *QueryOracle) BeginSitting() bool {
	if o.sitting {
		return true
	}
	if !o.affords(o.model.BaseMinutes + o.model.MinutesPerWindow) {
		return false
	}
	o.spent += o.model.BaseMinutes
	o.sitting = true
	return true
}

// EndSitting closes the current sitting; the next BeginSitting charges the
// base cost again.
func (o *QueryOracle) EndSitting() { o.sitting = false }

// Answer resolves one query window [start, end) against ground truth,
// charging MinutesPerWindow regardless of how many points the window spans.
// ok is false — and nothing is charged — when no sitting is open or the
// budget is exhausted. anomalous is true when the window overlaps any
// ground-truth anomalous point, subject to Miss.
func (o *QueryOracle) Answer(start, end int) (anomalous, ok bool) {
	if !o.sitting || !o.affords(o.model.MinutesPerWindow) {
		return false, false
	}
	o.spent += o.model.MinutesPerWindow
	o.answered++
	truth := false
	for i := start; i < end && i < len(o.truth); i++ {
		if i >= 0 && o.truth[i] {
			truth = true
			break
		}
	}
	if truth && o.Miss > 0 && o.rng.Float64() < o.Miss {
		truth = false
	}
	return truth, true
}

// SpentMinutes returns the modeled labeling time consumed so far.
func (o *QueryOracle) SpentMinutes() float64 { return o.spent }
