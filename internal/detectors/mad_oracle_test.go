package detectors

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The robust detectors as they were before the sorted window: every step
// copies the phase ring (and, for TSD MAD, the residual ring) into scratch in
// storage order and quickselects it — once for a median, twice for a MAD.
// Kept only as the oracle the sorted-window detectors are compared against.

// ringValues appends r's stored values to dst in storage order.
func ringValues(r *ring, dst []float64) []float64 {
	if r.full {
		return append(dst, r.buf...)
	}
	return append(dst, r.buf[:r.pos]...)
}

// medianInPlace selects the median of xs using quickselect, reordering xs.
func medianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return quickselect(xs, n/2)
	}
	lo := quickselect(xs, n/2-1)
	// After quickselect, elements right of k are >= xs[k]; the even-length
	// median needs the minimum of that upper half.
	hi := xs[n/2]
	for _, x := range xs[n/2:] {
		if x < hi {
			hi = x
		}
	}
	return (lo + hi) / 2
}

// medianMADInPlace returns the median of xs and the median absolute
// deviation around it; xs is reordered, then overwritten with deviations.
func medianMADInPlace(xs []float64) (med, mad float64) {
	med = medianInPlace(xs)
	for i, x := range xs {
		xs[i] = math.Abs(x - med)
	}
	return med, medianInPlace(xs)
}

func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case k == p:
			return xs[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return xs[k]
}

func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi] = xs[hi], xs[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}

type oracleHistoricalMAD struct {
	ph      *phaseHistory
	scratch []float64
}

func (d *oracleHistoricalMAD) Name() string { return "oracle_historical_mad" }

func (d *oracleHistoricalMAD) Step(v float64) (float64, bool) {
	hist := d.ph.peek()
	defer d.ph.push(v)
	if !hist.full {
		return 0, false
	}
	d.scratch = ringValues(hist, d.scratch[:0])
	med, mad := medianMADInPlace(d.scratch)
	return math.Abs(v-med) / (mad + eps), true
}

func (d *oracleHistoricalMAD) Reset() { d.ph.reset() }

func (d *oracleHistoricalMAD) Clone() Detector { return &oracleHistoricalMAD{ph: d.ph.clone()} }

type oracleTSDMAD struct {
	ph      *phaseHistory
	resid   *ring
	scratch []float64
}

func (d *oracleTSDMAD) Name() string { return "oracle_tsd_mad" }

func (d *oracleTSDMAD) Step(v float64) (float64, bool) {
	hist := d.ph.peek()
	defer d.ph.push(v)
	if !hist.full {
		return 0, false
	}
	d.scratch = ringValues(hist, d.scratch[:0])
	r := v - medianInPlace(d.scratch)
	ready := d.resid.full
	sev := 0.0
	if ready {
		d.scratch = ringValues(d.resid, d.scratch[:0])
		trend, spread := medianMADInPlace(d.scratch)
		sev = math.Abs(r-trend) / (spread + eps)
	}
	d.resid.push(r)
	return sev, ready
}

func (d *oracleTSDMAD) Reset() {
	d.ph.reset()
	d.resid.reset()
}

func (d *oracleTSDMAD) Clone() Detector {
	return &oracleTSDMAD{ph: d.ph.clone(), resid: cloneRing(d.resid)}
}

// madOracleStreams are NaN-free inputs (the old selection is only defined on
// those) chosen to exercise the sorted window: ordinary and seasonal noise,
// windows that are one repeated value, level steps that push every arrival to
// an end of the sorted order, integer counts full of ties, and magnitudes at
// both ends of the float range.
func madOracleStreams(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(2718))
	gen := func(f func(i int) float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = f(i)
		}
		return s
	}
	return map[string][]float64{
		"noise":    gen(func(int) float64 { return 120 + rng.NormFloat64()*8 }),
		"seasonal": gen(func(i int) float64 { return 200 + 80*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()*4 }),
		"constant": gen(func(int) float64 { return 42 }),
		"zeros":    gen(func(int) float64 { return 0 }),
		"steps": gen(func(i int) float64 {
			if (i/100)%2 == 1 {
				return 1000 + rng.NormFloat64()
			}
			return 10 + rng.NormFloat64()
		}),
		"ties":      gen(func(int) float64 { return float64(rng.Intn(4)) }),
		"denormals": gen(func(int) float64 { return float64(rng.Intn(6)) * 5e-324 }),
		"1e300":     gen(func(int) float64 { return 1e300 * (1 + rng.NormFloat64()/10) }),
	}
}

// TestMADMatchesOracle: the sorted window is an implementation detail. Each
// of the registry's ten robust configurations is ready on the same points as
// the copy-and-select oracle and returns the same severity bits on every
// stream — and so do a Clone taken in mid-window and the detector after a
// Reset, against the oracle's.
func TestMADMatchesOracle(t *testing.T) {
	const (
		ppd, ppw = 24, 168
		n        = 9 * ppw
		cloneAt  = 6*ppw + 53 // every window full, every FIFO mid-rotation
	)
	type pair struct{ got, want Cloner }
	var pairs []pair
	for w := 1; w <= 5; w++ {
		pairs = append(pairs,
			pair{NewHistoricalMAD(w, ppd), &oracleHistoricalMAD{ph: newPhaseHistory(ppd, 7*w)}},
			pair{NewTSDMAD(w, ppw, ppd), &oracleTSDMAD{ph: newPhaseHistory(ppw, w), resid: newRing(ppd)}})
	}
	same := func(t *testing.T, what string, i int, v float64, got, want Detector) {
		t.Helper()
		sev, ready := got.Step(v)
		exact, exactReady := want.Step(v)
		if ready != exactReady || math.Float64bits(sev) != math.Float64bits(exact) {
			t.Fatalf("%s, point %d (input %v): severity %v ready %v, oracle %v ready %v",
				what, i, v, sev, ready, exact, exactReady)
		}
	}
	for name, stream := range madOracleStreams(n) {
		for _, p := range pairs {
			t.Run(p.got.Name()+"/"+name, func(t *testing.T) {
				p.got.Reset()
				p.want.Reset()
				var gotClone, wantClone Detector
				for i, v := range stream {
					if i == cloneAt {
						gotClone, wantClone = p.got.Clone(), p.want.Clone()
					}
					same(t, "stream", i, v, p.got, p.want)
					if gotClone != nil {
						same(t, "clone", i, v, gotClone, wantClone)
					}
				}
				// Reset in mid-window, then a replay from the start.
				p.got.Reset()
				p.want.Reset()
				for i, v := range stream[:7*ppw] {
					same(t, "after Reset", i, v, p.got, p.want)
				}
			})
		}
	}
}

// TestMADIndependentOfRingRotation: a re-warmed detector (restore replays
// the recent weeks, so its FIFOs sit at other offsets) must agree with the
// uninterrupted one even when the windows hold NaN from missing scrapes.
// The copy-and-select step did not: it quickselected the ring in storage
// order, and selection over NaN depends on the arrangement.
func TestMADIndependentOfRingRotation(t *testing.T) {
	const ppd, ppw = 24, 168
	rng := rand.New(rand.NewSource(99))
	warm := make([]float64, 8*ppw) // ≥ the deepest window (5 weeks) plus the residual window
	for i := range warm {
		warm[i] = 90 + 20*math.Sin(2*math.Pi*float64(i)/ppd) + rng.NormFloat64()*6
		if rng.Float64() < 0.08 {
			warm[i] = math.NaN()
		}
	}
	probe := make([]float64, ppw)
	for i := range probe {
		probe[i] = 90 + rng.NormFloat64()*10
	}
	for w := 1; w <= 5; w++ {
		for _, mk := range []func() Detector{
			func() Detector { return NewHistoricalMAD(w, ppd) },
			func() Detector { return NewTSDMAD(w, ppw, ppd) },
		} {
			straight, rewarmed := mk(), mk()
			// The re-warmed instance first sees an unrelated prefix whose
			// length leaves every FIFO at a different slot.
			for i := 0; i < 3*ppw+ppd+5; i++ {
				rewarmed.Step(1e6 + float64(i))
			}
			for _, v := range warm {
				straight.Step(v)
				rewarmed.Step(v)
			}
			for i, v := range probe {
				a, aReady := straight.Step(v)
				b, bReady := rewarmed.Step(v)
				if !aReady || !bReady || math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s, probe %d: %v (ready %v) uninterrupted, %v (ready %v) re-warmed",
						straight.Name(), i, a, aReady, b, bReady)
				}
			}
		}
	}
}

// TestSortedWindowAgainstSort: after every arrival the sorted view is the
// last cap arrivals in ascending order with NaN last, specials included.
func TestSortedWindowAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, c := range []int{1, 2, 3, 7, 24, 35} {
		w := windowAt(make([]float64, 2*c), c)
		var last []float64
		for n := 0; n < 40*c; n++ {
			v := float64(rng.Intn(9))
			if rng.Float64() < 0.2 {
				v = special[rng.Intn(len(special))]
			}
			w.push(n, v)
			if last = append(last, v); len(last) > c {
				last = last[1:]
			}
			want := append([]float64(nil), last...)
			sort.Slice(want, func(i, j int) bool {
				return want[i] < want[j] || (math.IsNaN(want[j]) && !math.IsNaN(want[i]))
			})
			for i, x := range w.sorted[:len(want)] {
				if x != want[i] && !(math.IsNaN(x) && math.IsNaN(want[i])) {
					t.Fatalf("capacity %d after push %d: sorted view %v, want %v", c, n, w.sorted[:len(want)], want)
				}
			}
		}
	}
}
