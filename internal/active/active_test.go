package active

import (
	"math"
	"math/rand"
	"testing"
)

func queryState(band float64, depth int) *State {
	return NewState(Config{Band: band, Depth: depth})
}

func TestQueueBandFilter(t *testing.T) {
	s := queryState(0.1, 4)
	s.Observe(0, 0.9, 0.5)  // far above: confident anomaly
	s.Observe(10, 0.1, 0.5) // far below: confident normal
	if s.Depth() != 0 {
		t.Fatalf("confident points queued: depth = %d", s.Depth())
	}
	s.Observe(20, 0.55, 0.5) // in band
	if s.Depth() != 1 {
		t.Fatalf("in-band point not queued: depth = %d", s.Depth())
	}
	w := s.Windows(nil)[0]
	if w.Start != 20 || w.End != 21 || w.Points != 1 {
		t.Fatalf("window = %+v, want [20,21) with 1 point", w)
	}
	if want := 0.5; math.Abs(w.Score-want) > 1e-9 {
		t.Fatalf("score = %v, want %v (1 - 0.05/0.1)", w.Score, want)
	}
}

func TestQueueMergesAdjacent(t *testing.T) {
	s := queryState(0.1, 4)
	s.Observe(5, 0.52, 0.5)
	s.Observe(6, 0.50, 0.5) // adjacent, exactly at threshold
	s.Observe(8, 0.46, 0.5) // within mergeGap of end 7
	if s.Depth() != 1 {
		t.Fatalf("adjacent uncertain points split into %d windows, want 1", s.Depth())
	}
	w := s.Windows(nil)[0]
	if w.Start != 5 || w.End != 9 || w.Points != 3 {
		t.Fatalf("merged window = %+v, want [5,9) with 3 points", w)
	}
	if w.Score != 1 {
		t.Fatalf("merged score = %v, want the max (1)", w.Score)
	}
	s.Observe(50, 0.55, 0.5) // far away: a new window
	if s.Depth() != 2 {
		t.Fatalf("distant point merged: depth = %d, want 2", s.Depth())
	}
}

func TestQueueEvictsLowestScore(t *testing.T) {
	s := queryState(0.1, 2)
	s.Observe(0, 0.59, 0.5)  // score 0.1: the weakest
	s.Observe(10, 0.52, 0.5) // score 0.8
	s.Observe(20, 0.51, 0.5) // score 0.9 → evicts the 0.1 window
	ws := s.Windows(nil)
	if len(ws) != 2 {
		t.Fatalf("depth = %d, want capacity 2", len(ws))
	}
	if ws[0].Start != 20 || ws[1].Start != 10 {
		t.Fatalf("kept windows %+v, want starts 20 (score .9) then 10 (score .8)", ws)
	}
	// A newcomer weaker than everything present never enters.
	s.Observe(30, 0.595, 0.5) // score 0.05
	ws = s.Windows(nil)
	if len(ws) != 2 || ws[0].Start != 20 || ws[1].Start != 10 {
		t.Fatalf("weak newcomer displaced a stronger window: %+v", ws)
	}
}

func TestQueueRemoveAndReset(t *testing.T) {
	s := queryState(0.1, 4)
	s.Observe(0, 0.5, 0.5)
	s.Observe(10, 0.5, 0.5)
	if !s.Remove(0, 1) {
		t.Fatal("Remove of a pending window reported absent")
	}
	if s.Remove(0, 1) {
		t.Fatal("Remove of an already-removed window reported present")
	}
	if s.Remove(10, 12) {
		t.Fatal("Remove with a mismatched range reported present")
	}
	if s.Depth() != 1 {
		t.Fatalf("depth after remove = %d, want 1", s.Depth())
	}
	s.Reset()
	if s.Depth() != 0 {
		t.Fatalf("depth after reset = %d, want 0", s.Depth())
	}
}

// driftState builds a State with a tiny drift window so tests can drive
// whole comparison windows cheaply.
func driftState(threshold float64, window int) *State {
	return NewState(Config{DriftThreshold: threshold, DriftWindow: window})
}

// feed streams n vote fractions drawn from rng via draw into the state.
func feed(s *State, n int, draw func() float64) {
	for i := 0; i < n; i++ {
		s.Observe(i, draw(), 0.5)
	}
}

func TestDriftStationaryNeverLatches(t *testing.T) {
	s := driftState(0.25, MinDriftWindow)
	rng := rand.New(rand.NewSource(7))
	// Reference + 20 live windows from the same distribution.
	feed(s, 21*MinDriftWindow, func() float64 { return 0.2 + 0.1*rng.Float64() })
	if s.TakeDrift() {
		t.Fatal("stationary stream latched drift")
	}
	if got := s.DriftScore(); got >= 0.25 {
		t.Fatalf("stationary PSI = %v, want < threshold", got)
	}
}

func TestDriftShiftLatchesWithHysteresis(t *testing.T) {
	s := driftState(0.25, MinDriftWindow)
	rng := rand.New(rand.NewSource(7))
	low := func() float64 { return 0.2 + 0.1*rng.Float64() }
	high := func() float64 { return 0.7 + 0.1*rng.Float64() }
	feed(s, MinDriftWindow, low) // reference
	feed(s, MinDriftWindow, high)
	if s.TakeDrift() {
		t.Fatal("one over-threshold window latched despite hysteresis 2")
	}
	feed(s, MinDriftWindow, high)
	if !s.TakeDrift() {
		t.Fatalf("two consecutive shifted windows did not latch (PSI %v)", s.DriftScore())
	}
	if s.TakeDrift() {
		t.Fatal("TakeDrift did not consume the latch")
	}
	if s.DriftScore() < 0.25 {
		t.Fatalf("shifted PSI = %v, want ≥ threshold", s.DriftScore())
	}
}

func TestDriftStrikeResetOnCalmWindow(t *testing.T) {
	s := driftState(0.25, MinDriftWindow)
	rng := rand.New(rand.NewSource(9))
	low := func() float64 { return 0.2 + 0.1*rng.Float64() }
	high := func() float64 { return 0.7 + 0.1*rng.Float64() }
	feed(s, MinDriftWindow, low)  // reference
	feed(s, MinDriftWindow, high) // strike 1
	feed(s, MinDriftWindow, low)  // calm: strike counter resets
	feed(s, MinDriftWindow, high) // strike 1 again
	if s.TakeDrift() {
		t.Fatal("non-consecutive strikes latched drift")
	}
}

func TestDriftResetStartsFreshReference(t *testing.T) {
	s := driftState(0.25, MinDriftWindow)
	rng := rand.New(rand.NewSource(11))
	low := func() float64 { return 0.2 + 0.1*rng.Float64() }
	high := func() float64 { return 0.7 + 0.1*rng.Float64() }
	feed(s, MinDriftWindow, low)
	feed(s, 2*MinDriftWindow, high)
	if !s.TakeDrift() {
		t.Fatal("shift did not latch")
	}
	// After a reset (the retrain swap), the new regime becomes the
	// reference: continuing in it must not re-latch.
	s.Reset()
	if s.DriftScore() != 0 {
		t.Fatalf("score after reset = %v, want 0", s.DriftScore())
	}
	feed(s, 5*MinDriftWindow, high)
	if s.TakeDrift() {
		t.Fatal("post-reset stationary stream latched drift")
	}
}

// TestObserveZeroAllocs pins the hot-path contract: the engine calls Observe
// for every trained verdict inside its zero-alloc append path.
func TestObserveZeroAllocs(t *testing.T) {
	s := NewState(Config{DriftWindow: MinDriftWindow})
	rng := rand.New(rand.NewSource(3))
	probs := make([]float64, 4096)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	idx := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Observe(idx, probs[idx%len(probs)], 0.5)
		idx++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v allocs/op, want exactly 0", allocs)
	}
}

func TestQueueDeterminism(t *testing.T) {
	run := func() []Window {
		s := NewState(Config{Band: 0.2, Depth: 4})
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 2000; i++ {
			s.Observe(i, rng.Float64(), 0.5)
		}
		return s.Windows(nil)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("depths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
