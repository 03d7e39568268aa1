package simtest

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"opprentice/internal/engine"
)

var (
	seedFlag = flag.Int64("seed", 1, "scenario seed for TestSimSeed (reproduce a reported violation)")
	longFlag = flag.Bool("sim.long", false, "roughly double the driven length (soak mode)")
)

// matrixSeeds are the fixed seeds `make sim` runs. Every generated scenario
// contains at least one crash+restore, one rollback, one torn artifact
// (verdict or type head), one ingest flood, one slow-disk stall, one hung
// trainer and the bulk episode; the optional faults (WAL corruption, early
// crashes, panicking detectors, and which artifact kind is torn) vary across
// the seeds, so the matrix as a whole covers every fault kind, and its bulk
// episodes run at GOMAXPROCS 1, 2 and 4.
var matrixSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// runScenario executes one scenario to completion and fails the test with
// the violation's full report (seed, step, trace, repro command) otherwise.
func runScenario(t *testing.T, seed int64, long bool) Result {
	t.Helper()
	scen := GenScenario(seed, long)
	h, err := NewHarness(scen, t.TempDir(), long)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Trains == 0 || res.Crashes == 0 || res.Rollbacks == 0 {
		t.Fatalf("scenario did not exercise the acceptance floor: %+v", res)
	}
	t.Logf("seed %d: %d steps, %d trains, %d crashes, %d rollbacks, %d events delivered (%d attempts, %d retried)",
		seed, res.Steps, res.Trains, res.Crashes, res.Rollbacks,
		res.DeliveredEvents, res.DeliveryAttempts, res.DeliveryRetries)
	return res
}

// TestSimMatrix drives the fixed seed matrix. Each seed is an independent
// end-to-end simulation of the whole engine under its own fault schedule.
func TestSimMatrix(t *testing.T) {
	seeds := matrixSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runScenario(t, seed, *longFlag)
		})
	}
}

// TestSimSeed replays one scenario by seed: the reproduction entry point
// named in every Violation report.
func TestSimSeed(t *testing.T) {
	runScenario(t, *seedFlag, *longFlag)
}

// TestSimCatchesVerdictLoss is the oracle's self-test: an engine bug that
// loses one verdict (emulated by mutating the append result) must be caught
// as a seed-reproducible verdicts violation, not silently absorbed.
func TestSimCatchesVerdictLoss(t *testing.T) {
	scen := GenScenario(1, false)
	h, err := NewHarness(scen, t.TempDir(), false)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	h.MutateDropVerdict = func(series string, step int, res *engine.AppendResult) {
		if step == 2 && len(res.Verdicts) > 0 {
			res.Verdicts = res.Verdicts[:len(res.Verdicts)-1]
		}
	}
	_, err = h.Run()
	if err == nil {
		t.Fatalf("harness absorbed a lost verdict without a violation")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("lost verdict reported as %T, want *Violation: %v", err, err)
	}
	if v.Invariant != "verdicts" {
		t.Fatalf("lost verdict blamed on invariant %q, want %q: %v", v.Invariant, "verdicts", err)
	}
	if v.Seed != 1 || v.Step != 2 {
		t.Fatalf("violation carries seed %d step %d, want seed 1 step 2", v.Seed, v.Step)
	}
	if !strings.Contains(err.Error(), "go test ./internal/simtest -run TestSimSeed -seed=1") {
		t.Fatalf("violation report lacks the reproduction command:\n%v", err)
	}
}

// TestSimCatchesDroppedIncrement is the metrics invariant's self-test: an
// engine that forgets one counter increment (emulated by taking one publish
// back out of the exported samples) must be caught as a seed-reproducible
// metrics violation at that very step.
func TestSimCatchesDroppedIncrement(t *testing.T) {
	scen := GenScenario(1, false)
	h, err := NewHarness(scen, t.TempDir(), false)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	h.MutateExported = func(step int, samples map[string]float64) {
		if step == 2 {
			samples["ModelPublishes"]--
		}
	}
	_, err = h.Run()
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("dropped increment reported as %T, want *Violation: %v", err, err)
	}
	if v.Invariant != "metrics" || v.Seed != 1 || v.Step != 2 {
		t.Fatalf("violation is %q at seed %d step %d, want \"metrics\" at seed 1 step 2: %v", v.Invariant, v.Seed, v.Step, err)
	}
}

// TestSimCatchesPartialPublish is the multi-kind manifest invariant's
// self-test: a publish that loses one kind's artifact behind the manifest
// (emulated by deleting a generation's anomaly-type file right after its
// publication) must be caught as a seed-reproducible manifest violation
// naming the missing kind, not silently absorbed.
func TestSimCatchesPartialPublish(t *testing.T) {
	scen := GenScenario(1, false)
	h, err := NewHarness(scen, t.TempDir(), false)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	deleted := false
	h.MutatePartialPublish = func(series string, gen uint64, dir string) {
		if deleted {
			return
		}
		// Untyped series publish no atype artifact; the first typed series'
		// publication is the one this mutation tears apart.
		path := filepath.Join(dir, fmt.Sprintf("%012d.atype.model", gen))
		if os.Remove(path) == nil {
			deleted = true
		}
	}
	_, err = h.Run()
	if err == nil {
		t.Fatalf("harness absorbed a partial multi-kind publish without a violation")
	}
	if !deleted {
		t.Fatal("mutation never found an anomaly-type artifact to delete")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("partial publish reported as %T, want *Violation: %v", err, err)
	}
	if v.Invariant != "manifest" {
		t.Fatalf("partial publish blamed on invariant %q, want %q: %v", v.Invariant, "manifest", err)
	}
	if !strings.Contains(v.Detail, "atype") {
		t.Fatalf("violation does not name the missing kind:\n%v", err)
	}
}

// TestSimCatchesWatchdogOutage is the stall invariant's self-test: with the
// training watchdog left at its production deadline (longer than any stall
// wait), the gated round never completes in time and the harness must report
// a watchdog violation instead of hanging or passing.
func TestSimCatchesWatchdogOutage(t *testing.T) {
	scen := GenScenario(1, false)
	h, err := NewHarness(scen, t.TempDir(), false)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	h.DisableWatchdog = true
	_, err = h.Run()
	if err == nil {
		t.Fatalf("harness absorbed a disabled watchdog without a violation")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("watchdog outage reported as %T, want *Violation: %v", err, err)
	}
	if v.Invariant != "watchdog" {
		t.Fatalf("watchdog outage blamed on invariant %q, want %q: %v", v.Invariant, "watchdog", err)
	}
}

// stop shuts down the engines a run that ended in a violation leaves
// running, so that no late retrain or publish writes into a temp dir while
// the test removes it.
func (h *Harness) stop() {
	if h.twin != nil {
		h.discardTwin()
	}
	h.eng.Close()
	h.store.Close()
}

// TestSimCatchesBulkMutations is the bulk invariant's self-test: an
// AppendBulk that applies a run's frames in reverse order, or drops a run,
// (emulated by mutating the group the live engine receives) must be caught
// as a seed-reproducible bulk violation, not silently absorbed.
func TestSimCatchesBulkMutations(t *testing.T) {
	for name, mutate := range map[string]func([]engine.SeriesBatch) ([]engine.SeriesBatch, bool){
		"reversed frames": func(bs []engine.SeriesBatch) ([]engine.SeriesBatch, bool) {
			for i := range bs {
				for j := len(bs) - 1; j > i; j-- {
					if bs[j].Name == bs[i].Name {
						bs[i], bs[j] = bs[j], bs[i]
						return bs, true
					}
				}
			}
			return bs, false
		},
		"dropped run": func(bs []engine.SeriesBatch) ([]engine.SeriesBatch, bool) {
			first := bs[0].Name
			return slices.DeleteFunc(bs, func(b engine.SeriesBatch) bool { return b.Name == first }), true
		},
	} {
		t.Run(name, func(t *testing.T) {
			h, err := NewHarness(GenScenario(1, false), t.TempDir(), false)
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			t.Cleanup(h.stop)
			mutated := false
			h.MutateGroup = func(bs []engine.SeriesBatch) []engine.SeriesBatch {
				if !mutated {
					bs, mutated = mutate(bs)
				}
				return bs
			}
			_, err = h.Run()
			if !mutated {
				t.Fatal("no flush group had a run to mutate")
			}
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("%s reported as %T, want *Violation: %v", name, err, err)
			}
			if v.Invariant != "bulk" {
				t.Fatalf("%s blamed on invariant %q, want %q: %v", name, v.Invariant, "bulk", err)
			}
		})
	}
}
