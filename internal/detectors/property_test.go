package detectors

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Property: every registry detector is deterministic and Reset really
// restores the initial state — the same stream replayed after Reset must
// produce identical severities and readiness. The weekly retraining design
// depends on this.
func TestRegistryResetReplayDeterminism(t *testing.T) {
	ds, err := Registry(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	// Long enough that the largest SVD window (350 points) turns over four
	// times, so the replay crosses its periodic refreshes too.
	const n = 1600
	stream := make([]float64, n)
	for i := range stream {
		stream[i] = 100 + 10*math.Sin(float64(i)/7) + rng.NormFloat64()
	}
	for _, d := range ds {
		if _, ok := d.(Trainable); ok {
			continue // ARIMA is fitted separately; covered below
		}
		first := make([]float64, n)
		firstReady := make([]bool, n)
		for i, v := range stream {
			first[i], firstReady[i] = d.Step(v)
		}
		d.Reset()
		for i, v := range stream {
			sev, ready := d.Step(v)
			if ready != firstReady[i] || (ready && sev != first[i]) {
				t.Fatalf("%s: replay diverged at %d: (%v,%v) vs (%v,%v)",
					d.Name(), i, sev, ready, first[i], firstReady[i])
			}
		}
	}
}

// Property: a clone continues exactly where the original is and shares no
// mutable state with it. After cloning mid-stream, the original, a clone fed
// the same inputs and an uninterrupted reference detector yield bit-identical
// severities, whatever a second clone is fed in between. Incremental
// extraction resumes from such clones, so any streaming state Clone forgot
// would make its features differ from a cold extraction's.
func TestRegistryCloneContinuesBitIdentical(t *testing.T) {
	build := func() []Detector {
		ds, err := Registry(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	rng := rand.New(rand.NewSource(77))
	// Clone at a point that is a multiple of no detector window, then run
	// for more than two of the longest sliding one (SVD's 350 points).
	const k, n = 1013, 1013 + 800
	stream := make([]float64, n)
	for i := range stream {
		stream[i] = 100 + 10*math.Sin(float64(i)/7) + rng.NormFloat64()
	}
	ds, refs := build(), build()
	for j, d := range ds {
		ref := refs[j]
		for _, det := range []Detector{d, ref} {
			if tr, ok := det.(Trainable); ok {
				if err := tr.Fit(stream[:k]); err != nil {
					t.Fatalf("%s: %v", det.Name(), err)
				}
			}
			for _, v := range stream[:k] {
				det.Step(v)
			}
		}
		same, diverged := d.(Cloner).Clone(), d.(Cloner).Clone()
		for i, v := range stream[k:] {
			diverged.Step(-1000 * v)
			want, wantReady := ref.Step(v)
			for who, det := range map[string]Detector{"original": d, "clone": same} {
				sev, ready := det.Step(v)
				if ready != wantReady || math.Float64bits(sev) != math.Float64bits(want) {
					t.Fatalf("%s: %s diverged %d points after cloning: (%v,%v), uninterrupted (%v,%v)",
						d.Name(), who, i, sev, ready, want, wantReady)
				}
			}
		}
	}
}

func TestARIMAResetReplayDeterminism(t *testing.T) {
	d := NewARIMA(2, 1, 2)
	rng := rand.New(rand.NewSource(7))
	hist := make([]float64, 500)
	for i := 1; i < len(hist); i++ {
		hist[i] = 0.6*hist[i-1] + rng.NormFloat64()
	}
	if err := d.Fit(hist); err != nil {
		t.Fatal(err)
	}
	stream := make([]float64, 100)
	for i := range stream {
		stream[i] = rng.NormFloat64()
	}
	first := make([]float64, len(stream))
	for i, v := range stream {
		first[i], _ = d.Step(v)
	}
	// Reset keeps the model but clears streaming state; replaying from a
	// cold forecaster is deterministic with itself.
	d.Reset()
	second := make([]float64, len(stream))
	for i, v := range stream {
		second[i], _ = d.Step(v)
	}
	d.Reset()
	for i, v := range stream {
		sev, _ := d.Step(v)
		if sev != second[i] {
			t.Fatalf("ARIMA replay diverged at %d", i)
		}
	}
	_ = first
}

// Property: no registry detector's severity depends on future data — feeding
// a prefix yields exactly the same severities as feeding the full stream.
// This is the online requirement of §4.3.2 stated as a test.
func TestRegistryCausality(t *testing.T) {
	build := func() []Detector {
		ds, err := Registry(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	rng := rand.New(rand.NewSource(123))
	const n = 400
	stream := make([]float64, n)
	for i := range stream {
		stream[i] = 50 + rng.NormFloat64()*5
	}
	const cut = 250
	full := build()
	prefix := build()
	for j := range full {
		if _, ok := full[j].(Trainable); ok {
			continue
		}
		var fullSevs [cut]float64
		for i := 0; i < n; i++ {
			sev, _ := full[j].Step(stream[i])
			if i < cut {
				fullSevs[i] = sev
			}
		}
		for i := 0; i < cut; i++ {
			sev, _ := prefix[j].Step(stream[i])
			if sev != fullSevs[i] {
				t.Fatalf("%s: point %d severity depends on future data", full[j].Name(), i)
			}
		}
	}
}
