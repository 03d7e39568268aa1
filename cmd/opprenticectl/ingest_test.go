package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/service"
	"opprentice/internal/timeseries"
	"opprentice/internal/tsdb"
)

// TestIngestCSV drives `ingest` against a real engine behind an httptest
// server. A CSV that starts at the series' next slot lands there with its
// labels; the same CSV a second time is refused and appends nothing; a CSV
// that continues the series lands after it, its labels offset to match.
func TestIngestCSV(t *testing.T) {
	dir := t.TempDir()
	store, err := tsdb.Open(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	eng := engine.New(engine.Config{Log: log, Store: store})
	ts := httptest.NewServer(service.NewServerWithEngine(eng, log).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		store.Close()
	})
	c := service.NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	start := time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC)
	if err := c.Create(ctx, "pv", service.CreateRequest{IntervalSeconds: 60, Start: start}); err != nil {
		t.Fatal(err)
	}

	// writeCSV writes ten points from slot first on, anomalous at the given
	// offsets into the file.
	writeCSV := func(first int, anomalous ...int) string {
		s := timeseries.New("pv", start.Add(time.Duration(first)*time.Minute), time.Minute)
		labels := make(timeseries.Labels, 10)
		for i := range labels {
			s.Append(float64(first + i))
		}
		for _, i := range anomalous {
			labels[i] = true
		}
		path := filepath.Join(dir, fmt.Sprintf("from-%d.csv", first))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := timeseries.WriteCSV(f, s, labels); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ingest := func(path string) error {
		return runIngest(ctx, c, []string{"pv", "-csv", path, "-batch", "4"})
	}
	points := func() int {
		st, err := c.Status(ctx, "pv")
		if err != nil {
			t.Fatal(err)
		}
		return st.Points
	}

	first := writeCSV(0, 2, 3)
	if err := ingest(first); err != nil {
		t.Fatal(err)
	}
	var apiErr *service.APIError
	if err := ingest(first); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("second ingest of the same CSV: err = %v, want a 422", err)
	}
	if n := points(); n != 10 {
		t.Fatalf("after the refused re-run the series has %d points, want 10", n)
	}
	if err := ingest(writeCSV(10, 1)); err != nil {
		t.Fatalf("a CSV that continues the series: %v", err)
	}
	if n := points(); n != 20 {
		t.Fatalf("after the continuation the series has %d points, want 20", n)
	}

	got, err := store.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Values {
		if v != float64(i) {
			t.Fatalf("point %d = %v, want %d", i, v, i)
		}
	}
	for i, anomalous := range got.Labels {
		if want := i == 2 || i == 3 || i == 11; anomalous != want {
			t.Errorf("label %d = %v, want %v", i, anomalous, want)
		}
	}
}
