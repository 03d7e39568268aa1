package detectors

import (
	"fmt"
	"math"
)

// SimpleThreshold is the static-threshold detector (Amazon CloudWatch
// style [24]): the severity of a point is its own magnitude, so a fixed
// sThld on it is exactly a static alarm threshold. It is direction-blind by
// design — it ranks first for count-style KPIs whose anomalies are large
// values (#SR in the paper) and poorly elsewhere, which is precisely the
// behaviour Fig. 9 reports.
type SimpleThreshold struct{}

// NewSimpleThreshold returns the single Table-3 configuration.
func NewSimpleThreshold() *SimpleThreshold { return &SimpleThreshold{} }

// Name implements Detector.
func (*SimpleThreshold) Name() string { return "simple_threshold" }

// Step implements Detector: severity is the value itself, clamped at 0.
func (*SimpleThreshold) Step(v float64) (float64, bool) {
	return math.Max(v, 0), true
}

// Reset implements Detector.
func (*SimpleThreshold) Reset() {}

// Diff measures the absolute difference between the current point and the
// point lag slots earlier — the search engine's own "Diff" detector with
// variants last-slot, last-day and last-week.
type Diff struct {
	label string
	lag   int
	hist  *ring
}

// NewDiff returns a Diff detector with the given lag in points and a label
// ("last-slot", "last-day", "last-week") for the configuration name.
func NewDiff(label string, lag int) *Diff {
	if lag < 1 {
		panic(fmt.Sprintf("detectors: diff lag %d", lag))
	}
	return &Diff{label: label, lag: lag, hist: newRing(lag)}
}

// Name implements Detector.
func (d *Diff) Name() string { return fmt.Sprintf("diff(%s)", d.label) }

// Step implements Detector.
func (d *Diff) Step(v float64) (float64, bool) {
	ready := d.hist.full
	sev := 0.0
	if ready {
		sev = math.Abs(v - d.hist.oldest())
	}
	d.hist.push(v)
	return sev, ready
}

// Reset implements Detector.
func (d *Diff) Reset() { d.hist.reset() }

// SimpleMA predicts each point as the plain average of the previous win
// points and reports the absolute residual as severity [4].
type SimpleMA struct {
	win  int
	hist *ring
	sum  float64
}

// NewSimpleMA returns a simple moving-average detector with the given
// window in points.
func NewSimpleMA(win int) *SimpleMA {
	return &SimpleMA{win: win, hist: newRing(win)}
}

// Name implements Detector.
func (d *SimpleMA) Name() string { return fmt.Sprintf("simple_ma(win=%d)", d.win) }

// Step implements Detector.
func (d *SimpleMA) Step(v float64) (float64, bool) {
	ready := d.hist.full
	sev := 0.0
	if ready {
		sev = math.Abs(v - d.sum/float64(d.win))
		d.sum -= d.hist.oldest()
	}
	d.hist.push(v)
	d.sum += v
	return sev, ready
}

// Reset implements Detector.
func (d *SimpleMA) Reset() {
	d.hist.reset()
	d.sum = 0
}

// WeightedMA is SimpleMA with linearly decaying weights: the most recent of
// the win previous points weighs win, the oldest weighs 1 [11].
type WeightedMA struct {
	win  int
	hist *ring
}

// NewWeightedMA returns a weighted moving-average detector.
func NewWeightedMA(win int) *WeightedMA {
	return &WeightedMA{win: win, hist: newRing(win)}
}

// Name implements Detector.
func (d *WeightedMA) Name() string { return fmt.Sprintf("weighted_ma(win=%d)", d.win) }

// Step implements Detector.
func (d *WeightedMA) Step(v float64) (float64, bool) {
	ready := d.hist.full
	sev := 0.0
	if ready {
		// Oldest→newest with weights 1..win: the ring from hist.pos to its
		// end, then from its start up to hist.pos.
		num, w := 0.0, 0.0
		for _, x := range d.hist.buf[d.hist.pos:] {
			w++
			num += w * x
		}
		for _, x := range d.hist.buf[:d.hist.pos] {
			w++
			num += w * x
		}
		sev = math.Abs(v - num/(w*(w+1)/2))
	}
	d.hist.push(v)
	return sev, ready
}

// Reset implements Detector.
func (d *WeightedMA) Reset() { d.hist.reset() }

// MAOfDiff averages the last-slot differences over a window — the search
// engine's detector for discovering continuous jitters.
type MAOfDiff struct {
	win   int
	diffs *ring
	sum   float64
	prev  float64
	seen  bool
}

// NewMAOfDiff returns an MA-of-diff detector with the given window.
func NewMAOfDiff(win int) *MAOfDiff {
	return &MAOfDiff{win: win, diffs: newRing(win)}
}

// Name implements Detector.
func (d *MAOfDiff) Name() string { return fmt.Sprintf("ma_of_diff(win=%d)", d.win) }

// Step implements Detector.
func (d *MAOfDiff) Step(v float64) (float64, bool) {
	if !d.seen {
		d.prev, d.seen = v, true
		return 0, false
	}
	diff := math.Abs(v - d.prev)
	d.prev = v
	if d.diffs.full {
		d.sum -= d.diffs.oldest()
	}
	d.diffs.push(diff)
	d.sum += diff
	if !d.diffs.full {
		return 0, false
	}
	return d.sum / float64(d.win), true
}

// Reset implements Detector.
func (d *MAOfDiff) Reset() {
	d.diffs.reset()
	d.sum, d.prev, d.seen = 0, 0, false
}

// EWMADetector predicts each point with an exponentially weighted moving
// average of the past and reports the absolute residual [11]. Larger alpha
// trusts recent data more.
type EWMADetector struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an EWMA detector with weight alpha ∈ [0, 1].
func NewEWMA(alpha float64) *EWMADetector {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("detectors: ewma alpha %v", alpha))
	}
	return &EWMADetector{alpha: alpha}
}

// Name implements Detector.
func (d *EWMADetector) Name() string { return fmt.Sprintf("ewma(alpha=%.1f)", d.alpha) }

// Step implements Detector.
func (d *EWMADetector) Step(v float64) (float64, bool) {
	if !d.seen {
		d.value, d.seen = v, true
		return 0, false
	}
	sev := math.Abs(v - d.value)
	d.value = d.alpha*v + (1-d.alpha)*d.value
	return sev, true
}

// Reset implements Detector.
func (d *EWMADetector) Reset() { d.value, d.seen = 0, false }
