package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFilterByDurationClearsShortRuns(t *testing.T) {
	pred := []bool{true, false, true, true, false, true, true, true, false, true}
	got := FilterByDuration(pred, 2)
	want := []bool{false, false, true, true, false, true, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFilterByDurationMinOne(t *testing.T) {
	pred := []bool{true, false, true}
	got := FilterByDuration(pred, 0) // clamped to 1: identity
	for i := range pred {
		if got[i] != pred[i] {
			t.Fatalf("minPoints<=1 should be identity: %v", got)
		}
	}
}

func TestFilterByDurationRunAtEnd(t *testing.T) {
	pred := []bool{false, true, true, true}
	got := FilterByDuration(pred, 3)
	if !got[1] || !got[2] || !got[3] {
		t.Errorf("trailing long run should survive: %v", got)
	}
	got = FilterByDuration(pred, 4)
	if got[1] || got[2] || got[3] {
		t.Errorf("trailing short run should be cleared: %v", got)
	}
}

// replay runs the streaming filter over verdicts and reconstructs the
// decided labels in order.
func replay(verdicts []bool, min int) []bool {
	f := &DurationFilter{MinPoints: min}
	var out []bool
	for _, v := range verdicts {
		for _, d := range f.Step(v) {
			for k := 0; k < d.Count; k++ {
				out = append(out, d.Anomalous)
			}
		}
	}
	// Flush: a pending run at stream end never reached min, so it is
	// normal by the batch convention.
	for k := 0; k < f.run; k++ {
		out = append(out, false)
	}
	return out
}

// The streaming filter must agree exactly with the batch filter.
func TestDurationFilterStreamingMatchesBatch(t *testing.T) {
	f := func(seed int64, minRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		min := 1 + int(minRaw)%5
		verdicts := make([]bool, 50+rng.Intn(100))
		for i := range verdicts {
			verdicts[i] = rng.Intn(3) == 0
		}
		want := FilterByDuration(verdicts, min)
		got := replay(verdicts, min)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDurationFilterLatencyBounded(t *testing.T) {
	f := &DurationFilter{MinPoints: 5}
	for i := 0; i < 4; i++ {
		f.Step(true)
	}
	if f.run != 4 {
		t.Errorf("pending = %d, want 4", f.run)
	}
	// Latency never exceeds MinPoints-1.
	if f.run >= 5 {
		t.Error("latency bound violated")
	}
	out := f.Step(true)
	if len(out) != 1 || !out[0].Anomalous || out[0].Count != 5 {
		t.Errorf("confirmation = %+v", out)
	}
	// Continuation of a confirmed run is decided immediately.
	out = f.Step(true)
	if len(out) != 1 || !out[0].Anomalous || out[0].Count != 1 {
		t.Errorf("continuation = %+v", out)
	}
}

func TestFilterByDurationDoesNotMutate(t *testing.T) {
	pred := []bool{true, false}
	FilterByDuration(pred, 2)
	if !pred[0] {
		t.Error("input mutated")
	}
}
