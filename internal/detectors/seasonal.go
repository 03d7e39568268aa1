package detectors

import (
	"fmt"
	"math"

	"opprentice/internal/timeseries"
)

// phaseHistory stores, for every phase of a seasonal period, a ring of the
// values seen at that phase in past periods. Phases are counted from the
// start of the stream; absolute wall-clock alignment is irrelevant as long
// as the period is right.
type phaseHistory struct {
	period int
	depth  int
	rings  []*ring
	t      int
}

func newPhaseHistory(period, depth int) *phaseHistory {
	if period < 1 || depth < 1 {
		panic(fmt.Sprintf("detectors: phase history period=%d depth=%d", period, depth))
	}
	ph := &phaseHistory{period: period, depth: depth, rings: make([]*ring, period)}
	for i := range ph.rings {
		ph.rings[i] = newRing(depth)
	}
	return ph
}

// peek returns the ring for the current phase: past periods' values at this
// phase, not yet including the incoming point. Callers must read it before
// calling push.
func (ph *phaseHistory) peek() *ring { return ph.rings[ph.t%ph.period] }

// push records v at the current phase and advances to the next point.
func (ph *phaseHistory) push(v float64) {
	ph.rings[ph.t%ph.period].push(v)
	ph.t++
}

func (ph *phaseHistory) reset() {
	for _, r := range ph.rings {
		r.reset()
	}
	ph.t = 0
}

// HistoricalAverage assumes values at the same time of day follow a Gaussian
// distribution and reports how many standard deviations the point sits from
// the mean of the past win weeks of same-time-of-day values [5].
type HistoricalAverage struct {
	winWeeks int
	ppd      int
	ph       *phaseHistory
}

// NewHistoricalAverage returns the detector with a win-week day-phase
// history; ppd is the number of points per day.
func NewHistoricalAverage(winWeeks, ppd int) *HistoricalAverage {
	return &HistoricalAverage{
		winWeeks: winWeeks,
		ppd:      ppd,
		ph:       newPhaseHistory(ppd, winWeeks*7),
	}
}

// Name implements Detector.
func (d *HistoricalAverage) Name() string {
	return fmt.Sprintf("historical_avg(win=%dw)", d.winWeeks)
}

// Step implements Detector.
func (d *HistoricalAverage) Step(v float64) (float64, bool) {
	hist := d.ph.peek()
	defer d.ph.push(v)
	if !hist.full {
		return 0, false
	}
	mean, std := hist.meanStd()
	return math.Abs(v-mean) / (std + eps), true
}

// Reset implements Detector.
func (d *HistoricalAverage) Reset() { d.ph.reset() }

// HistoricalMAD is HistoricalAverage with the median and the median absolute
// deviation replacing mean and standard deviation, for robustness to dirty
// data [3, 15].
type HistoricalMAD struct {
	winWeeks int
	ph       *phaseHistory
	scratch  []float64
}

// NewHistoricalMAD returns the robust variant; ppd is points per day.
func NewHistoricalMAD(winWeeks, ppd int) *HistoricalMAD {
	return &HistoricalMAD{winWeeks: winWeeks, ph: newPhaseHistory(ppd, winWeeks*7)}
}

// Name implements Detector.
func (d *HistoricalMAD) Name() string {
	return fmt.Sprintf("historical_mad(win=%dw)", d.winWeeks)
}

// Step implements Detector.
func (d *HistoricalMAD) Step(v float64) (float64, bool) {
	hist := d.ph.peek()
	defer d.ph.push(v)
	if !hist.full {
		return 0, false
	}
	// The scratch buffer is an owned copy of the ring, refilled every step,
	// so the in-place median/MAD (which scrambles it) is free to reorder.
	d.scratch = hist.values(d.scratch[:0])
	med, mad := timeseries.MedianMADInPlace(d.scratch)
	return math.Abs(v-med) / (mad + eps), true
}

// Reset implements Detector.
func (d *HistoricalMAD) Reset() { d.ph.reset() }

// trendWindow bounds the residual window used by TSD's detrending so the
// per-point cost stays small at fine data intervals.
const trendWindow = 60

// TSD is a time-series-decomposition detector [1]: the point is decomposed
// into a weekly seasonal component (mean of the same week-slot over the past
// win weeks), a short-term trend (mean of recent residuals) and noise. The
// severity is the noise magnitude in units of the recent residual standard
// deviation.
type TSD struct {
	winWeeks int
	ph       *phaseHistory
	resid    *ring
	sum, ssq float64
}

// NewTSD returns the detector; ppw is points per week, ppd points per day.
func NewTSD(winWeeks, ppw, ppd int) *TSD {
	tw := trendWindow
	if ppd < tw {
		tw = ppd
	}
	return &TSD{
		winWeeks: winWeeks,
		ph:       newPhaseHistory(ppw, winWeeks),
		resid:    newRing(tw),
	}
}

// Name implements Detector.
func (d *TSD) Name() string { return fmt.Sprintf("tsd(win=%dw)", d.winWeeks) }

// Step implements Detector.
func (d *TSD) Step(v float64) (float64, bool) {
	hist := d.ph.peek()
	defer d.ph.push(v)
	if !hist.full {
		return 0, false
	}
	mean, _ := hist.meanStd()
	r := v - mean
	ready := d.resid.full
	sev := 0.0
	if ready {
		n := float64(d.resid.len())
		trend := d.sum / n
		variance := d.ssq/n - trend*trend
		if variance < 0 {
			variance = 0
		}
		sev = math.Abs(r-trend) / (math.Sqrt(variance) + eps)
		old := d.resid.oldest()
		d.sum -= old
		d.ssq -= old * old
	}
	d.resid.push(r)
	d.sum += r
	d.ssq += r * r
	return sev, ready
}

// Reset implements Detector.
func (d *TSD) Reset() {
	d.ph.reset()
	d.resid.reset()
	d.sum, d.ssq = 0, 0
}

// TSDMAD is TSD with median/MAD replacing mean/std in both the seasonal
// estimate and the residual normalization, improving robustness to dirty
// data [3, 15].
type TSDMAD struct {
	winWeeks int
	ph       *phaseHistory
	resid    *ring
	scratch  []float64
}

// NewTSDMAD returns the robust decomposition detector.
func NewTSDMAD(winWeeks, ppw, ppd int) *TSDMAD {
	tw := trendWindow
	if ppd < tw {
		tw = ppd
	}
	return &TSDMAD{
		winWeeks: winWeeks,
		ph:       newPhaseHistory(ppw, winWeeks),
		resid:    newRing(tw),
	}
}

// Name implements Detector.
func (d *TSDMAD) Name() string { return fmt.Sprintf("tsd_mad(win=%dw)", d.winWeeks) }

// Step implements Detector.
func (d *TSDMAD) Step(v float64) (float64, bool) {
	hist := d.ph.peek()
	defer d.ph.push(v)
	if !hist.full {
		return 0, false
	}
	// Scratch is refilled from the rings before each use, so the in-place
	// median/MAD (which scrambles it) never sees stale data.
	d.scratch = hist.values(d.scratch[:0])
	seasonal := timeseries.MedianInPlace(d.scratch)
	r := v - seasonal
	ready := d.resid.full
	sev := 0.0
	if ready {
		d.scratch = d.resid.values(d.scratch[:0])
		trend, spread := timeseries.MedianMADInPlace(d.scratch)
		sev = math.Abs(r-trend) / (spread + eps)
	}
	d.resid.push(r)
	return sev, ready
}

// Reset implements Detector.
func (d *TSDMAD) Reset() {
	d.ph.reset()
	d.resid.reset()
}
