package detectors

import (
	"fmt"
	"math"
)

// HoltWinters is additive triple exponential smoothing [6]: level, trend and
// a daily seasonal profile, each with its own smoothing constant. The
// severity of a point is the absolute residual between the observation and
// the one-step forecast made before seeing it. Table 3 sweeps
// alpha, beta, gamma over {0.2, 0.4, 0.6, 0.8}, giving 64 configurations.
type HoltWinters struct {
	alpha, beta, gamma float64
	period             int

	season []float64
	level  float64
	trend  float64
	warm   []float64 // first period, used to initialize
	t      int       // points consumed
	phase  int       // t % period once the first period is in
}

// NewHoltWinters returns a Holt-Winters detector with the given smoothing
// constants and seasonal period in points (one day for the paper's KPIs).
func NewHoltWinters(alpha, beta, gamma float64, period int) *HoltWinters {
	if period < 2 {
		panic(fmt.Sprintf("detectors: holt-winters period %d", period))
	}
	for _, p := range []float64{alpha, beta, gamma} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("detectors: holt-winters parameter %v out of [0,1]", p))
		}
	}
	return &HoltWinters{alpha: alpha, beta: beta, gamma: gamma, period: period}
}

// Name implements Detector.
func (d *HoltWinters) Name() string {
	return fmt.Sprintf("holt_winters(a=%.1f,b=%.1f,g=%.1f)", d.alpha, d.beta, d.gamma)
}

// Step implements Detector.
func (d *HoltWinters) Step(v float64) (float64, bool) {
	t := d.t
	d.t++
	if t < d.period {
		// Collect the first period to bootstrap level and seasonal profile.
		d.warm = append(d.warm, v)
		if t == d.period-1 {
			mean := 0.0
			for _, w := range d.warm {
				mean += w
			}
			mean /= float64(len(d.warm))
			d.level = mean
			d.trend = 0
			d.season = make([]float64, d.period)
			for i, w := range d.warm {
				d.season[i] = w - mean
			}
			d.warm = nil
		}
		return 0, false
	}
	si := d.phase
	if d.phase++; d.phase == d.period {
		d.phase = 0
	}
	forecast := d.level + d.trend + d.season[si]
	sev := math.Abs(v - forecast)

	prevLevel := d.level
	d.level = d.alpha*(v-d.season[si]) + (1-d.alpha)*(d.level+d.trend)
	d.trend = d.beta*(d.level-prevLevel) + (1-d.beta)*d.trend
	d.season[si] = d.gamma*(v-d.level) + (1-d.gamma)*d.season[si]

	// The second period still runs on a rough initialization; report ready
	// only from the third period on.
	return sev, t >= 2*d.period
}

// Reset implements Detector.
func (d *HoltWinters) Reset() {
	d.season, d.warm = nil, nil
	d.level, d.trend = 0, 0
	d.t, d.phase = 0, 0
}
