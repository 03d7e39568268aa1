package core

import "testing"

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

func TestFilterByDurationDoesNotMutate(t *testing.T) {
	pred := []bool{true, false}
	FilterByDuration(pred, 2)
	if !pred[0] {
		t.Error("input mutated")
	}
}
