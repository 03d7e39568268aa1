package detectors

import (
	"fmt"
	"math"
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

// phaseWindows is phaseHistory for the robust detectors: one sortedWindow
// per phase of the period, all on one slab. Every phase is visited once per
// period, so the push count of the current phase is t / period and is not
// stored.
type phaseWindows struct {
	period, depth int
	slab          []float64 // period × (fifo, sorted) pairs of depth values, then the owner's extra
	t             int
}

// newPhaseWindows allocates period windows of depth values, followed on the
// same slab by extra values for the owner's own windows.
func newPhaseWindows(period, depth, extra int) phaseWindows {
	if period < 1 || depth < 1 {
		panic(fmt.Sprintf("detectors: phase windows period=%d depth=%d", period, depth))
	}
	return phaseWindows{period: period, depth: depth, slab: make([]float64, 2*period*depth+extra)}
}

// next returns the window of the current phase with its push count — past
// periods' values at this phase, not yet including the incoming point, which
// the caller pushes — and advances to the next point.
func (p *phaseWindows) next() (w sortedWindow, n int) {
	w = windowAt(p.slab[2*p.depth*(p.t%p.period):], p.depth)
	n = p.t / p.period
	p.t++
	return w, n
}

// extra returns the slab past the phase windows.
func (p *phaseWindows) extra() []float64 { return p.slab[2*p.period*p.depth:] }

// clone deep-copies the windows and the owner's extra with them.
func (p phaseWindows) clone() phaseWindows {
	p.slab = append([]float64(nil), p.slab...)
	return p
}

// HistoricalMAD is HistoricalAverage with the median and the median absolute
// deviation replacing mean and standard deviation, for robustness to dirty
// data [3, 15].
type HistoricalMAD struct {
	winWeeks int
	ph       phaseWindows
}

// NewHistoricalMAD returns the robust variant; ppd is points per day.
func NewHistoricalMAD(winWeeks, ppd int) *HistoricalMAD {
	return &HistoricalMAD{winWeeks: winWeeks, ph: newPhaseWindows(ppd, winWeeks*7, 0)}
}

// Name implements Detector.
func (d *HistoricalMAD) Name() string {
	return fmt.Sprintf("historical_mad(win=%dw)", d.winWeeks)
}

// Step implements Detector.
func (d *HistoricalMAD) Step(v float64) (float64, bool) {
	hist, n := d.ph.next()
	if n < d.ph.depth {
		hist.push(n, v)
		return 0, false
	}
	med := medianSorted(hist.sorted)
	mad := madSorted(hist.sorted, med)
	hist.push(n, v)
	return madSeverity(v, med, mad), true
}

// Reset implements Detector.
func (d *HistoricalMAD) Reset() { d.ph.t = 0 }

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
	ph       phaseWindows
	resid    sortedWindow // shares ph's slab
	nresid   int          // residuals pushed so far
}

// NewTSDMAD returns the robust decomposition detector, laid out on one slab:
// the week-slot windows, then the residual window.
func NewTSDMAD(winWeeks, ppw, ppd int) *TSDMAD {
	tw := trendWindow
	if ppd < tw {
		tw = ppd
	}
	if tw < 1 {
		panic(fmt.Sprintf("detectors: TSD MAD with %d points per day", ppd))
	}
	ph := newPhaseWindows(ppw, winWeeks, 2*tw)
	return &TSDMAD{winWeeks: winWeeks, ph: ph, resid: windowAt(ph.extra(), tw)}
}

// Name implements Detector.
func (d *TSDMAD) Name() string { return fmt.Sprintf("tsd_mad(win=%dw)", d.winWeeks) }

// Step implements Detector.
func (d *TSDMAD) Step(v float64) (float64, bool) {
	hist, n := d.ph.next()
	if n < d.ph.depth {
		hist.push(n, v)
		return 0, false
	}
	r := v - medianSorted(hist.sorted)
	hist.push(n, v)
	ready := d.nresid >= len(d.resid.fifo)
	sev := 0.0
	if ready {
		trend := medianSorted(d.resid.sorted)
		sev = madSeverity(r, trend, madSorted(d.resid.sorted, trend))
	}
	d.resid.push(d.nresid, r)
	d.nresid++
	return sev, ready
}

// Reset implements Detector.
func (d *TSDMAD) Reset() { d.ph.t, d.nresid = 0, 0 }
