package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMRAPanics(t *testing.T) {
	for _, levels := range []int{0, -1, 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMRA(%d) should panic", levels)
				}
			}()
			NewMRA(levels)
		}()
	}
}

func TestWarmUp(t *testing.T) {
	if got := NewMRA(3).WarmUp(); got != 7 {
		t.Errorf("WarmUp(3 levels) = %d, want 7", got)
	}
	if got := NewMRA(1).WarmUp(); got != 1 {
		t.Errorf("WarmUp(1 level) = %d, want 1", got)
	}
}

// Perfect reconstruction: x = ΣD_j + A_L at every step, warm or not.
func TestPerfectReconstruction(t *testing.T) {
	m := NewMRA(4)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x := rng.NormFloat64()*3 + 10
		details, approx, _ := m.Push(x)
		sum := approx
		for _, d := range details {
			sum += d
		}
		if math.Abs(sum-x) > 1e-9 {
			t.Fatalf("point %d: ΣD+A = %v, want %v", i, sum, x)
		}
	}
}

func TestReadyAfterWarmUp(t *testing.T) {
	m := NewMRA(3)
	for i := 0; i < m.WarmUp(); i++ {
		if _, _, ready := m.Push(1); ready {
			t.Fatalf("ready at point %d, warm-up is %d", i, m.WarmUp())
		}
	}
	if _, _, ready := m.Push(1); !ready {
		t.Error("should be ready after warm-up")
	}
}

// A constant signal has zero details and approximation equal to the signal.
func TestConstantSignal(t *testing.T) {
	m := NewMRA(4)
	var details []float64
	var approx float64
	for i := 0; i < 50; i++ {
		details, approx, _ = m.Push(5)
	}
	for j, d := range details {
		if math.Abs(d) > 1e-12 {
			t.Errorf("detail[%d] = %v, want 0", j, d)
		}
	}
	if math.Abs(approx-5) > 1e-12 {
		t.Errorf("approx = %v, want 5", approx)
	}
}

// An alternating signal concentrates energy in the finest detail level.
func TestAlternatingSignalHitsHighBand(t *testing.T) {
	m := NewMRA(4)
	var energy []float64
	for i := 0; i < 64; i++ {
		x := float64(i%2)*2 - 1 // -1, +1, -1, ...
		details, _, ready := m.Push(x)
		if !ready {
			continue
		}
		if energy == nil {
			energy = make([]float64, len(details))
		}
		for j, d := range details {
			energy[j] += d * d
		}
	}
	for j := 1; j < len(energy); j++ {
		if energy[0] <= energy[j] {
			t.Errorf("level 1 energy %v should dominate level %d energy %v",
				energy[0], j+1, energy[j])
		}
	}
}

// A slow level shift shows up in the coarse levels, not the finest.
func TestLevelShiftHitsLowBand(t *testing.T) {
	m := NewMRA(5)
	var fine, coarse float64
	for i := 0; i < 256; i++ {
		x := 0.0
		if i >= 128 {
			x = 10
		}
		details, _, ready := m.Push(x)
		if !ready || i < 128 || i > 160 {
			continue
		}
		fine += math.Abs(details[0])
		coarse += math.Abs(details[len(details)-1])
	}
	if coarse <= fine {
		t.Errorf("level shift: coarse |D| %v should exceed fine |D| %v", coarse, fine)
	}
}

func TestReset(t *testing.T) {
	m := NewMRA(3)
	for i := 0; i < 20; i++ {
		m.Push(float64(i))
	}
	m.Reset()
	if _, _, ready := m.Push(1); ready {
		t.Error("ready right after Reset")
	}
	// And reconstruction still holds.
	details, approx, _ := m.Push(4)
	sum := approx
	for _, d := range details {
		sum += d
	}
	if math.Abs(sum-4) > 1e-9 {
		t.Errorf("post-reset reconstruction = %v, want 4", sum)
	}
}

func TestBandSplitCoversAllLevels(t *testing.T) {
	f := func(raw uint8) bool {
		levels := 1 + int(raw)%12
		r := BandSplit(levels)
		covered := make([]bool, levels+1)
		for _, band := range r {
			for l := band[0]; l <= band[1]; l++ {
				if l < 1 || l > levels || covered[l] {
					return false
				}
				covered[l] = true
			}
		}
		for l := 1; l <= levels; l++ {
			if !covered[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBandString(t *testing.T) {
	if High.String() != "high" || Mid.String() != "mid" || Low.String() != "low" {
		t.Error("band names wrong")
	}
	if Band(9).String() != "Band(9)" {
		t.Error("unknown band name wrong")
	}
}

func TestBandValueSumsToSignal(t *testing.T) {
	// High+Mid+Low band values (with approxDelta = approx) must equal x.
	m := NewMRA(6)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		details, approx, _ := m.Push(x)
		sum := BandValue(High, details, 0) + BandValue(Mid, details, 0) + BandValue(Low, details, approx)
		if math.Abs(sum-x) > 1e-9 {
			t.Fatalf("band sum = %v, want %v", sum, x)
		}
	}
}

// formerPush is Push as it advanced the lag buffers before PR 24: by a
// modulo, although ring j always holds 2^j points.
func formerPush(m *MRA, x float64) (details []float64, approx float64, ready bool) {
	if m.details == nil {
		m.details = make([]float64, m.levels)
	}
	details = m.details
	a := x
	for j := 0; j < m.levels; j++ {
		ring := m.rings[j]
		lagged := a
		if m.filled[j] == len(ring) {
			lagged = ring[m.pos[j]]
		}
		ring[m.pos[j]] = a
		m.pos[j] = (m.pos[j] + 1) % len(ring)
		if m.filled[j] < len(ring) {
			m.filled[j]++
		}
		next := (a + lagged) / 2
		details[j] = a - next
		a = next
	}
	m.n++
	return details, a, m.n > m.WarmUp()
}

// TestPushMatchesFormer: every coefficient equals the modulo form's to the
// bit, for each level count the detector uses and the smallest, over noise
// with missing points (NaN), level steps and runs of zeros, through a Clone a
// third of the way in and a Reset two thirds in.
func TestPushMatchesFormer(t *testing.T) {
	rng := rand.New(rand.NewSource(2424))
	stream := make([]float64, 3000)
	for i := range stream {
		switch {
		case rng.Float64() < 0.05:
			stream[i] = math.NaN()
		case (i/400)%3 == 1:
			stream[i] = 1000 + rng.NormFloat64()
		case (i/400)%3 == 2:
			stream[i] = 0
		default:
			stream[i] = 120 + 40*math.Sin(float64(i)/24) + rng.NormFloat64()*8
		}
	}
	for _, levels := range []int{1, 3, 6, 7} {
		got, want := NewMRA(levels), NewMRA(levels)
		for i, x := range stream {
			switch i {
			case len(stream) / 3:
				got = got.Clone()
			case 2 * len(stream) / 3:
				got.Reset()
				want.Reset()
			}
			details, approx, ready := got.Push(x)
			wantDetails, wantApprox, wantReady := formerPush(want, x)
			same := ready == wantReady && math.Float64bits(approx) == math.Float64bits(wantApprox)
			for j := range details {
				same = same && math.Float64bits(details[j]) == math.Float64bits(wantDetails[j])
			}
			if !same {
				t.Fatalf("levels %d, point %d (input %v): %v %v %v, former %v %v %v",
					levels, i, x, details, approx, ready, wantDetails, wantApprox, wantReady)
			}
		}
	}
}
