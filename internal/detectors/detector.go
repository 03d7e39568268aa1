// Package detectors implements the 14 basic anomaly detectors of Table 3 as
// streaming *feature extractors*, following the paper's unified model
// (§4.3.1):
//
//	data point --[detector + parameters]--> severity --[sThld]--> {1, 0}
//
// Each detector consumes one point at a time and emits a non-negative
// severity measuring how anomalous that point looks from the detector's own
// perspective. Opprentice never applies the sThld itself: severities are the
// features of its random forest. All detectors are online (§4.3.2): a point's
// severity is computed without waiting for any subsequent data, and
// detectors that need history report ready=false during their warm-up
// window, whose points are skipped for detection.
package detectors

import (
	"fmt"
	"math"
)

// Detector is a streaming severity extractor. Implementations are not safe
// for concurrent use; run one instance per goroutine.
type Detector interface {
	// Name identifies the detector configuration, e.g. "ewma(alpha=0.3)".
	Name() string
	// Step consumes the next data point and returns its severity.
	// ready is false while the detector warms up; the severity is then
	// meaningless and callers should treat the feature as absent.
	Step(v float64) (severity float64, ready bool)
	// Reset returns the detector to its initial, unwarmed state.
	Reset()
}

// Trainable is implemented by detectors whose parameters are estimated from
// historical data rather than swept (§4.3.3) — ARIMA in this repo. Fit may
// be called again later to refresh the estimates as data characteristics
// drift.
type Trainable interface {
	Detector
	Fit(history []float64) error
}

// eps keeps deviation-over-spread severities finite on constant data.
const eps = 1e-9

// ring is a fixed-capacity FIFO over float64 used by the windowed detectors.
type ring struct {
	buf  []float64
	pos  int
	full bool
}

func newRing(n int) *ring {
	if n <= 0 {
		panic(fmt.Sprintf("detectors: ring size %d", n))
	}
	return &ring{buf: make([]float64, n)}
}

// push appends v, evicting the oldest value once full.
func (r *ring) push(v float64) {
	r.buf[r.pos] = v
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
		r.full = true
	}
}

// len returns the number of stored values.
func (r *ring) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.pos
}

// oldest returns the value about to be evicted. Only valid when full.
func (r *ring) oldest() float64 { return r.buf[r.pos] }

// at returns the k-th oldest value, 0 ≤ k < len(buf). Only valid when full.
func (r *ring) at(k int) float64 {
	k += r.pos
	if k >= len(r.buf) {
		k -= len(r.buf)
	}
	return r.buf[k]
}

// reset clears the ring.
func (r *ring) reset() {
	r.pos, r.full = 0, false
}

// meanStd returns the mean and population standard deviation of the stored
// values.
func (r *ring) meanStd() (mean, std float64) {
	n := r.len()
	if n == 0 {
		return 0, 0
	}
	vals := r.buf[:n]
	if r.full {
		vals = r.buf
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n)
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(n))
}
