package detectors

import (
	"math"
	"testing"
)

// sameBits steps got and want over every stream and fails on the first point
// where they disagree on readiness or on a single bit of the severity. A third
// of the way in got is swapped for its Clone, two thirds in both are Reset, so
// whatever state got keeps that want does not must survive both.
func sameBits(t *testing.T, streams map[string][]float64, mk func() (got, want Detector)) {
	t.Helper()
	for name, stream := range streams {
		got, want := mk()
		for i, v := range stream {
			switch i {
			case len(stream) / 3:
				got = got.(Cloner).Clone()
			case 2 * len(stream) / 3:
				got.Reset()
				want.Reset()
			}
			sev, ready := got.Step(v)
			wantSev, wantReady := want.Step(v)
			if ready != wantReady || math.Float64bits(sev) != math.Float64bits(wantSev) {
				t.Fatalf("%s on %s, point %d (input %v): severity %v (%#x) ready %v, former %v (%#x) ready %v",
					got.Name(), name, i, v, sev, math.Float64bits(sev), ready, wantSev, math.Float64bits(wantSev), wantReady)
			}
		}
	}
}

// formerWeightedMA is WeightedMA as it stepped before PR 24: one modulo per
// ring element and the constant denominator summed again on every point.
type formerWeightedMA struct{ WeightedMA }

func (d *formerWeightedMA) Step(v float64) (float64, bool) {
	ready := d.hist.full
	sev := 0.0
	if ready {
		num, den := 0.0, 0.0
		for k := 0; k < d.win; k++ {
			w := float64(k + 1)
			num += w * d.hist.buf[(d.hist.pos+k)%d.win]
			den += w
		}
		sev = math.Abs(v - num/den)
	}
	d.hist.push(v)
	return sev, ready
}

func TestWeightedMAMatchesFormer(t *testing.T) {
	for _, win := range []int{1, 2, 10, 20, 30, 40, 50} {
		sameBits(t, contractStreams(600), func() (got, want Detector) {
			return NewWeightedMA(win), &formerWeightedMA{*NewWeightedMA(win)}
		})
	}
}

// formerHoltWinters is HoltWinters as it stepped before PR 24: the seasonal
// slot by t % period, t advanced by a deferred increment.
type formerHoltWinters struct{ HoltWinters }

func (d *formerHoltWinters) Step(v float64) (float64, bool) {
	defer func() { d.t++ }()
	if d.t < d.period {
		d.warm = append(d.warm, v)
		if d.t == d.period-1 {
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
	si := d.t % d.period
	forecast := d.level + d.trend + d.season[si]
	sev := math.Abs(v - forecast)

	prevLevel := d.level
	d.level = d.alpha*(v-d.season[si]) + (1-d.alpha)*(d.level+d.trend)
	d.trend = d.beta*(d.level-prevLevel) + (1-d.beta)*d.trend
	d.season[si] = d.gamma*(v-d.level) + (1-d.gamma)*d.season[si]
	return sev, d.t >= 2*d.period
}

func TestHoltWintersMatchesFormer(t *testing.T) {
	// Periods that do and do not divide the points at which sameBits clones
	// and resets, so a phase counter is carried over at every offset.
	for _, period := range []int{2, 7, 24, 168} {
		for _, p := range []float64{0.2, 0.8} {
			sameBits(t, contractStreams(600), func() (got, want Detector) {
				return NewHoltWinters(p, 1-p, p, period), &formerHoltWinters{*NewHoltWinters(p, 1-p, p, period)}
			})
		}
	}
}
