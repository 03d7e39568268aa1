package timeseries

import (
	"math"
	"testing"
	"time"
)

var epoch = time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC) // a Monday

func TestNewPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero interval did not panic")
		}
	}()
	New("x", epoch, 0)
}

func TestAppendAndTimeAt(t *testing.T) {
	s := New("pv", epoch, time.Minute)
	for i := 0; i < 5; i++ {
		s.Append(float64(i))
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if got := s.TimeAt(3); !got.Equal(epoch.Add(3 * time.Minute)) {
		t.Errorf("TimeAt(3) = %v, want %v", got, epoch.Add(3*time.Minute))
	}
}

func TestPointsPerDayWeek(t *testing.T) {
	s := New("pv", epoch, 10*time.Minute)
	ppd, err := s.PointsPerDay()
	if err != nil || ppd != 144 {
		t.Errorf("PointsPerDay = %d, %v; want 144, nil", ppd, err)
	}
	ppw, err := s.PointsPerWeek()
	if err != nil || ppw != 1008 {
		t.Errorf("PointsPerWeek = %d, %v; want 1008, nil", ppw, err)
	}
	bad := New("x", epoch, 7*time.Minute)
	if _, err := bad.PointsPerDay(); err == nil {
		t.Error("7-minute interval should not divide a day")
	}
}

func TestSliceSharesStorageAndShiftsStart(t *testing.T) {
	s := New("pv", epoch, time.Minute)
	for i := 0; i < 10; i++ {
		s.Append(float64(i))
	}
	sub := s.Slice(2, 6)
	if sub.Len() != 4 {
		t.Fatalf("sub.Len = %d, want 4", sub.Len())
	}
	if !sub.Start.Equal(epoch.Add(2 * time.Minute)) {
		t.Errorf("sub.Start = %v", sub.Start)
	}
	sub.Values[0] = 99
	if s.Values[2] != 99 {
		t.Error("Slice should share storage")
	}
}

func TestSlicePanicsOutOfRange(t *testing.T) {
	s := New("pv", epoch, time.Minute)
	s.Append(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Slice(0,2) on len-1 series did not panic")
		}
	}()
	s.Slice(0, 2)
}

func TestCloneIndependent(t *testing.T) {
	s := New("pv", epoch, time.Minute)
	s.Append(1)
	s.Missing = []bool{true}
	c := s.Clone()
	c.Values[0] = 42
	c.Missing[0] = false
	if s.Values[0] != 1 || !s.Missing[0] {
		t.Error("Clone should be independent")
	}
}

func TestStats(t *testing.T) {
	s := New("x", epoch, time.Minute)
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Append(v)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Std(); got != 2 {
		t.Errorf("Std = %v, want 2", got)
	}
	if got := s.Cv(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Cv = %v, want 0.4", got)
	}
}

func TestCvZeroMean(t *testing.T) {
	s := New("x", epoch, time.Minute)
	s.Append(1)
	s.Append(-1)
	if !math.IsNaN(s.Cv()) {
		t.Error("Cv of zero-mean series should be NaN")
	}
}
