package active

import "math"

// driftBins is the vote-fraction histogram resolution. 20 equal bins over
// [0, 1] is the conventional PSI setup: fine enough to see the forest's
// vote mass move, coarse enough that a day-sized window fills the occupied
// bins.
const driftBins = 20

// smooth is the Laplace-style count added to every bin before computing
// PSI, so empty bins contribute a finite, bounded term instead of ±Inf.
const smooth = 0.5

// hysteresis is how many consecutive over-threshold windows latch drift, so
// one noisy window cannot trigger a retrain.
const hysteresis = 2

// detector is a windowed-reference PSI drift detector over the stream of
// forest vote fractions. The first `window` trained verdicts after a reset
// build the reference histogram — the distribution the current model was
// effectively validated against — and every subsequent window of the same
// size is compared to it. PSI at or above the threshold is one strike;
// hysteresis consecutive strikes latch drift. Fixed arrays throughout:
// observe never allocates.
type detector struct {
	threshold float64
	window    int

	ref     [driftBins]float64
	live    [driftBins]float64
	refN    int
	liveN   int
	haveRef bool

	score   float64
	strikes int
	latched bool
}

func (d *detector) init(threshold float64, window int) {
	d.threshold = threshold
	d.window = window
}

func (d *detector) observe(prob float64) {
	if d.threshold == 0 {
		return
	}
	bin := int(prob * driftBins)
	if bin < 0 {
		bin = 0
	}
	if bin >= driftBins {
		bin = driftBins - 1
	}
	if !d.haveRef {
		d.ref[bin]++
		d.refN++
		if d.refN >= d.window {
			d.haveRef = true
		}
		return
	}
	d.live[bin]++
	d.liveN++
	if d.liveN < d.window {
		return
	}
	d.score = psi(&d.ref, d.refN, &d.live, d.liveN)
	if d.score >= d.threshold {
		d.strikes++
		if d.strikes >= hysteresis {
			d.latched = true
		}
	} else {
		d.strikes = 0
	}
	d.live = [driftBins]float64{}
	d.liveN = 0
}

func (d *detector) take() bool {
	if !d.latched {
		return false
	}
	d.latched = false
	d.strikes = 0
	return true
}

func (d *detector) reset() {
	d.ref = [driftBins]float64{}
	d.live = [driftBins]float64{}
	d.refN, d.liveN = 0, 0
	d.haveRef = false
	d.score = 0
	d.strikes = 0
	d.latched = false
}

// psi is the Population Stability Index between two count histograms:
// Σ (pᵢ−qᵢ)·ln(pᵢ/qᵢ) over smoothed bin frequencies. Symmetric, zero for
// identical distributions, and conventionally read as <0.1 stable,
// 0.1–0.25 drifting, ≥0.25 shifted.
func psi(ref *[driftBins]float64, refN int, live *[driftBins]float64, liveN int) float64 {
	rTot := float64(refN) + smooth*driftBins
	lTot := float64(liveN) + smooth*driftBins
	sum := 0.0
	for i := 0; i < driftBins; i++ {
		p := (ref[i] + smooth) / rTot
		q := (live[i] + smooth) / lTot
		sum += (q - p) * math.Log(q/p)
	}
	return sum
}
