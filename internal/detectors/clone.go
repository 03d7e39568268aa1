package detectors

// Cloner is implemented by detectors whose full streaming state can be
// deep-copied. Clone returns an independent detector positioned exactly where
// the receiver is: stepping the clone and the original with the same inputs
// yields bit-identical severities, and neither shares mutable state with the
// other.
//
// Cloning is what makes incremental feature extraction possible (§7: feature
// extraction "computed incrementally for new data only"): after extracting a
// configuration's severity column over a series prefix, the extractor
// checkpoints a clone, and the next extraction resumes from the checkpoint
// instead of replaying the whole history. Every detector in the default
// registry implements Cloner; a custom detector that does not is simply
// re-extracted cold each round (correct, just not O(Δ)).
type Cloner interface {
	Detector
	Clone() Detector
}

// cloneRing deep-copies a ring; nil stays nil.
func cloneRing(r *ring) *ring {
	if r == nil {
		return nil
	}
	return &ring{
		buf:  append([]float64(nil), r.buf...),
		pos:  r.pos,
		full: r.full,
	}
}

// clone deep-copies a phase history.
func (ph *phaseHistory) clone() *phaseHistory {
	if ph == nil {
		return nil
	}
	c := &phaseHistory{period: ph.period, depth: ph.depth, t: ph.t}
	c.rings = make([]*ring, len(ph.rings))
	for i, r := range ph.rings {
		c.rings[i] = cloneRing(r)
	}
	return c
}

// Clone implements Cloner. SimpleThreshold is stateless.
func (*SimpleThreshold) Clone() Detector { return &SimpleThreshold{} }

// Clone implements Cloner.
func (d *Diff) Clone() Detector {
	return &Diff{label: d.label, lag: d.lag, hist: cloneRing(d.hist)}
}

// Clone implements Cloner.
func (d *SimpleMA) Clone() Detector {
	return &SimpleMA{win: d.win, hist: cloneRing(d.hist), sum: d.sum}
}

// Clone implements Cloner.
func (d *WeightedMA) Clone() Detector {
	return &WeightedMA{win: d.win, hist: cloneRing(d.hist)}
}

// Clone implements Cloner.
func (d *MAOfDiff) Clone() Detector {
	return &MAOfDiff{win: d.win, diffs: cloneRing(d.diffs), sum: d.sum, prev: d.prev, seen: d.seen}
}

// Clone implements Cloner.
func (d *EWMADetector) Clone() Detector {
	c := *d
	return &c
}

// Clone implements Cloner.
func (d *CUSUM) Clone() Detector {
	c := *d
	return &c
}

// Clone implements Cloner.
func (d *RateOfChange) Clone() Detector {
	c := *d
	return &c
}

// Clone implements Cloner.
func (d *HistoricalAverage) Clone() Detector {
	return &HistoricalAverage{
		winWeeks: d.winWeeks,
		ppd:      d.ppd,
		ph:       d.ph.clone(),
	}
}

// Clone implements Cloner.
func (d *HistoricalMAD) Clone() Detector {
	return &HistoricalMAD{winWeeks: d.winWeeks, ph: d.ph.clone()}
}

// Clone implements Cloner.
func (d *TSD) Clone() Detector {
	return &TSD{
		winWeeks: d.winWeeks,
		ph:       d.ph.clone(),
		resid:    cloneRing(d.resid),
		sum:      d.sum,
		ssq:      d.ssq,
	}
}

// Clone implements Cloner.
func (d *TSDMAD) Clone() Detector {
	ph := d.ph.clone()
	return &TSDMAD{winWeeks: d.winWeeks, ph: ph, resid: windowAt(ph.extra(), len(d.resid.fifo)), nresid: d.nresid}
}

// Clone implements Cloner.
func (d *HoltWinters) Clone() Detector {
	c := *d
	c.season = append([]float64(nil), d.season...)
	c.warm = append([]float64(nil), d.warm...)
	return &c
}

// Clone implements Cloner. Everything but the tmp and edge scratch is
// streaming state: the history ring, the sliding sums with their refresh
// bookkeeping (age, peak), and the warm-started power iteration direction.
func (d *SVDDetector) Clone() Detector {
	c := NewSVD(d.rows, d.cols)
	c.hist = cloneRing(d.hist)
	copy(c.gram, d.gram)
	copy(c.cross, d.cross)
	copy(c.v1, d.v1)
	c.age, c.peak, c.warm = d.age, d.peak, d.warm
	return c
}

// Clone implements Cloner.
func (d *WaveletDetector) Clone() Detector {
	c := *d
	c.mra = d.mra.Clone()
	return &c
}

// Clone implements Cloner. The fitted model is immutable after Fit and is
// shared; the streaming forecaster state is deep-copied. Refitting the clone
// replaces its model pointer without disturbing the original.
func (d *ARIMADetector) Clone() Detector {
	c := &ARIMADetector{maxP: d.maxP, maxD: d.maxD, maxQ: d.maxQ, model: d.model}
	if d.fc != nil {
		c.fc = d.fc.Clone()
	}
	return c
}

// Compile-time proof that every registry detector family supports
// checkpointing.
var (
	_ Cloner = (*SimpleThreshold)(nil)
	_ Cloner = (*Diff)(nil)
	_ Cloner = (*SimpleMA)(nil)
	_ Cloner = (*WeightedMA)(nil)
	_ Cloner = (*MAOfDiff)(nil)
	_ Cloner = (*EWMADetector)(nil)
	_ Cloner = (*CUSUM)(nil)
	_ Cloner = (*RateOfChange)(nil)
	_ Cloner = (*HistoricalAverage)(nil)
	_ Cloner = (*HistoricalMAD)(nil)
	_ Cloner = (*TSD)(nil)
	_ Cloner = (*TSDMAD)(nil)
	_ Cloner = (*HoltWinters)(nil)
	_ Cloner = (*SVDDetector)(nil)
	_ Cloner = (*WaveletDetector)(nil)
	_ Cloner = (*ARIMADetector)(nil)
)
