package detectors

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// contractStreams builds the adversarial input families every detector
// configuration must survive: seeded noise around a level, a seasonal shape,
// a perfectly constant series (zero variance denominators), an
// all-zero series, NaN-holed noise (missing scrapes), and step changes.
// All generators are seeded — a failure names the stream and index and
// reproduces exactly.
func contractStreams(n int) map[string][]float64 {
	streams := make(map[string][]float64)

	rng := rand.New(rand.NewSource(4242))
	noisy := make([]float64, n)
	for i := range noisy {
		noisy[i] = 120 + rng.NormFloat64()*8
	}
	streams["noisy"] = noisy

	seasonal := make([]float64, n)
	for i := range seasonal {
		seasonal[i] = 200 + 80*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()*4
	}
	streams["seasonal"] = seasonal

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 42
	}
	streams["constant"] = constant

	streams["zeros"] = make([]float64, n)

	holed := make([]float64, n)
	for i := range holed {
		if rng.Float64() < 0.05 {
			holed[i] = math.NaN() // a missing scrape
		} else {
			holed[i] = 90 + rng.NormFloat64()*6
		}
	}
	streams["nan-holed"] = holed

	steps := make([]float64, n)
	for i := range steps {
		level := 10.0
		if (i/100)%2 == 1 {
			level = 1000
		}
		steps[i] = level + rng.NormFloat64()
	}
	streams["step-changes"] = steps

	return streams
}

// hasNaN reports whether any value in vs is NaN.
func hasNaN(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// TestRegistrySeverityContract states the severity contract of §4.3 as a
// property: on any input stream, a ready severity is never negative and
// never infinite, and on streams without missing points it is never NaN
// either (NaN severities are only acceptable downstream of a NaN input,
// where the extraction layer imputes them). A violation here would poison
// the feature matrix for every classifier trained on the configuration.
func TestRegistrySeverityContract(t *testing.T) {
	const n = 600
	for streamName, stream := range contractStreams(n) {
		clean := !hasNaN(stream)
		ds, err := Registry(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if tr, ok := d.(Trainable); ok {
				// Trainable detectors are fitted on clean history before
				// streaming, like training does.
				hist := contractStreams(n)["seasonal"]
				if err := tr.Fit(hist); err != nil {
					t.Fatalf("%s: fit on clean history: %v", d.Name(), err)
				}
			}
			for i, v := range stream {
				sev, ready := d.Step(v)
				if !ready {
					continue
				}
				if sev < 0 {
					t.Fatalf("%s on %s stream: negative severity %v at %d (input %v)",
						d.Name(), streamName, sev, i, v)
				}
				if math.IsInf(sev, 0) {
					t.Fatalf("%s on %s stream: infinite severity at %d (input %v)",
						d.Name(), streamName, i, v)
				}
				if clean && math.IsNaN(sev) {
					t.Fatalf("%s on %s stream: NaN severity at %d with no NaN anywhere in the input (input %v)",
						d.Name(), streamName, i, v)
				}
			}
		}
	}
}

// TestMADHostileWindows: ±Inf readings and NaN bursts placed to straddle the
// edges of the day-phase, week-slot and residual windows. A ready severity of
// a robust configuration is then never negative and never infinite (NaN is
// how an unusable point is reported), and nothing panics.
func TestMADHostileWindows(t *testing.T) {
	ds, err := Registry(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	stream := hostileMADStream(30 * 168)
	for _, d := range ds {
		switch d.(type) {
		case *HistoricalMAD, *TSDMAD:
		default:
			continue
		}
		for i, v := range stream {
			if sev, ready := d.Step(v); ready && (sev < 0 || math.IsInf(sev, 0)) {
				t.Fatalf("%s: severity %v at %d (input %v)", d.Name(), sev, i, v)
			}
		}
	}
}

// hostileMADStream is seasonal noise with, every twelve days or so, a burst of NaN
// or ±Inf whose length (1, 23, 24, 25 or 169 points) just misses, fills or
// overruns a day of phases, the 24-point residual window or a week of slots.
func hostileMADStream(n int) []float64 {
	rng := rand.New(rand.NewSource(777))
	s := make([]float64, n)
	for i := range s {
		s[i] = 200 + 80*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()*4
	}
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for at, k := 900, 0; at+169 < n; at, k = at+293, k+1 {
		width := []int{1, 23, 24, 25, 169}[k%5]
		for j := 0; j < width; j++ {
			v := vals[k%3]
			if k%4 == 3 {
				v = vals[(k+j)%3] // mixed burst
			}
			s[at+j] = v
		}
	}
	return s
}

// TestRegistryConfigNamesUnique: configuration names key feature columns,
// caches, and degraded-set bookkeeping — a duplicate would silently merge
// two features.
func TestRegistryConfigNamesUnique(t *testing.T) {
	ds, err := Registry(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(ds))
	for _, d := range ds {
		name := d.Name()
		if name == "" {
			t.Fatal("detector with empty configuration name")
		}
		if seen[name] {
			t.Fatalf("duplicate configuration name %q", name)
		}
		seen[name] = true
	}
	if len(seen) < 10 {
		t.Fatalf("registry has only %d configurations; the paper's ensemble needs a real spread", len(seen))
	}
}
