package timeseries

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	s := New("pv", epoch, 5*time.Minute)
	for _, v := range []float64{1.5, 2, 3.25, 0} {
		s.Append(v)
	}
	labels := Labels{false, true, false, true}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, s, labels); err != nil {
		t.Fatal(err)
	}
	got, gotLabels, err := ReadCSV(&buf, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != 5*time.Minute {
		t.Errorf("interval = %v, want 5m", got.Interval)
	}
	if !got.Start.Equal(epoch) {
		t.Errorf("start = %v, want %v", got.Start, epoch)
	}
	if got.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), s.Len())
	}
	for i := range s.Values {
		if got.Values[i] != s.Values[i] {
			t.Errorf("value[%d] = %v, want %v", i, got.Values[i], s.Values[i])
		}
		if gotLabels[i] != labels[i] {
			t.Errorf("label[%d] = %v, want %v", i, gotLabels[i], labels[i])
		}
	}
}

func TestCSVNoLabels(t *testing.T) {
	s := New("pv", epoch, time.Minute)
	s.Append(1)
	s.Append(2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "label") {
		t.Error("header should not contain label column")
	}
	_, labels, err := ReadCSV(&buf, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if labels != nil {
		t.Errorf("labels = %v, want nil", labels)
	}
}

func TestWriteCSVLabelMismatch(t *testing.T) {
	s := New("pv", epoch, time.Minute)
	s.Append(1)
	if err := WriteCSV(&bytes.Buffer{}, s, Labels{true, false}); err == nil {
		t.Error("want error for label length mismatch")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]struct{ in, names string }{
		"too short":      {"timestamp,value\n2015-01-05T00:00:00Z,1\n", ""},
		"bad timestamp":  {"timestamp,value\nnope,1\n2015-01-05T00:01:00Z,2\n", "row 1"},
		"bad value":      {"timestamp,value\n2015-01-05T00:00:00Z,x\n2015-01-05T00:01:00Z,2\n", "row 1"},
		"non-increasing": {"timestamp,value\n2015-01-05T00:01:00Z,1\n2015-01-05T00:00:00Z,2\n", ""},
		"gap":            {"timestamp,value\n2015-01-05T00:00:00Z,1\n2015-01-05T00:01:00Z,2\n2015-01-05T00:03:00Z,3\n", "row 3"},
		"duplicate row":  {"timestamp,value\n2015-01-05T00:00:00Z,1\n2015-01-05T00:01:00Z,2\n2015-01-05T00:01:00Z,2\n", "row 3"},
		"bad later row":  {"timestamp,value\n2015-01-05T00:00:00Z,1\n2015-01-05T00:01:00Z,2\nnope,3\n", "row 3"},
	}
	for name, tc := range cases {
		_, _, err := ReadCSV(strings.NewReader(tc.in), "x")
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: err = %v, want an error naming %q", name, err, tc.names)
		}
	}
}
