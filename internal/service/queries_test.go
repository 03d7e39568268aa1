package service

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/kpigen"
)

// TestQueryEndpoints drives the query lifecycle over HTTP with the typed
// client: surface → answer → consumed, plus the Prometheus gauges. A query
// band of 1.0 makes every trained verdict a candidate so the test is
// deterministic.
func TestQueryEndpoints(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := NewServerWithEngine(engine.New(engine.Config{
		Log:       log,
		QueryBand: 1, QueryDepth: 4, DriftThreshold: math.Inf(1),
	}), log)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if err := c.Create(ctx, "pv", CreateRequest{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
		t.Fatal(err)
	}
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 51)
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}
	boot := 8 * ppw
	pts := make([]Point, boot)
	for i := range pts {
		pts[i] = Point{Value: d.Series.Values[i]}
	}
	if _, err := c.Append(ctx, "pv", pts); err != nil {
		t.Fatal(err)
	}
	var windows []LabelWindow
	for _, w := range d.Labels.Windows() {
		if w.End <= boot {
			windows = append(windows, LabelWindow{Start: w.Start, End: w.End, Anomalous: true})
		}
	}
	if err := c.Label(ctx, "pv", windows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Train(ctx, "pv"); err != nil {
		t.Fatal(err)
	}

	// No trained verdicts yet: the queue is empty but the route works.
	qs, err := c.Queries(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 0 {
		t.Fatalf("queries before trained appends: %+v", qs)
	}

	stream := make([]Point, 24)
	for i := range stream {
		stream[i] = Point{Value: d.Series.Values[boot+i]}
	}
	if _, err := c.Append(ctx, "pv", stream); err != nil {
		t.Fatal(err)
	}

	qs, err = c.Queries(ctx, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no queries surfaced with band 1.0")
	}
	q := qs[0]
	if q.Series != "pv" || q.End <= q.Start || q.Score <= 0 {
		t.Fatalf("malformed query %+v", q)
	}

	// Filtering by an unknown series is a 404, mapped like every lookup.
	if _, err := c.Queries(ctx, "nope"); err == nil {
		t.Fatal("unknown series filter succeeded")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown series filter: %v, want 404", err)
		}
	}

	if err := c.AnswerQuery(ctx, "pv", q.Start, q.End, true); err != nil {
		t.Fatalf("AnswerQuery: %v", err)
	}
	// The answer landed as labels.
	st, err := c.Status(ctx, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if st.AnomalousPoints < q.End-q.Start {
		t.Fatalf("answer did not label: status %+v", st)
	}
	// Re-answering the consumed query is a 422.
	if err := c.AnswerQuery(ctx, "pv", q.Start, q.End, true); err == nil {
		t.Fatal("re-answer succeeded")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("re-answer: %v, want 422", err)
		}
	}

	// The new metrics are exposed.
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"opprenticed_queries_answered_total 1",
		"opprenticed_drift_retrains_total 0",
		`opprenticed_query_queue_depth{series="pv"}`,
		`opprenticed_drift_score{series="pv"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
