package timeseries

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// WriteCSV writes the series (and optional labels) as CSV rows of
// "timestamp,value[,label]" with a header, using RFC 3339 timestamps.
// labels may be nil; otherwise it must match the series length.
func WriteCSV(w io.Writer, s *Series, labels Labels) error {
	if labels != nil && len(labels) != s.Len() {
		return fmt.Errorf("timeseries: %d labels for %d points", len(labels), s.Len())
	}
	cw := csv.NewWriter(w)
	header := []string{"timestamp", "value"}
	if labels != nil {
		header = append(header, "label")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i, v := range s.Values {
		row[0] = s.TimeAt(i).UTC().Format(time.RFC3339)
		row[1] = strconv.FormatFloat(v, 'g', -1, 64)
		if labels != nil {
			if labels[i] {
				row[2] = "1"
			} else {
				row[2] = "0"
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a series written by WriteCSV. It infers the interval from
// the first two timestamps and refuses any row whose timestamp is not
// t0 + i·interval, so a gap or a duplicate row cannot shift later points. It
// returns the labels column when present (nil otherwise).
func ReadCSV(r io.Reader, name string) (*Series, Labels, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(records) < 3 {
		return nil, nil, fmt.Errorf("timeseries: need a header and at least 2 points, got %d rows", len(records))
	}
	hasLabels := len(records[0]) >= 3
	t0, err := time.Parse(time.RFC3339, records[1][0])
	if err != nil {
		return nil, nil, fmt.Errorf("timeseries: row 1: %w", err)
	}
	t1, err := time.Parse(time.RFC3339, records[2][0])
	if err != nil {
		return nil, nil, fmt.Errorf("timeseries: row 2: %w", err)
	}
	interval := t1.Sub(t0)
	if interval <= 0 {
		return nil, nil, fmt.Errorf("timeseries: non-increasing timestamps %v, %v", t0, t1)
	}
	s := New(name, t0, interval)
	var labels Labels
	if hasLabels {
		labels = make(Labels, 0, len(records)-1)
	}
	for i, rec := range records[1:] {
		if len(rec) < 2 {
			return nil, nil, fmt.Errorf("timeseries: row %d: need at least 2 fields", i+1)
		}
		ts, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			return nil, nil, fmt.Errorf("timeseries: row %d: %w", i+1, err)
		}
		if want := s.TimeAt(i); !ts.Equal(want) {
			return nil, nil, fmt.Errorf("timeseries: row %d: timestamp %s, want %s (rows must be %v apart, with no gap or duplicate)",
				i+1, rec[0], want.Format(time.RFC3339), interval)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("timeseries: row %d: %w", i+1, err)
		}
		s.Append(v)
		if hasLabels {
			labels = append(labels, rec[2] == "1" || rec[2] == "true")
		}
	}
	return s, labels, nil
}
