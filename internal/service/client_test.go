package service

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"opprentice/internal/kpigen"
)

func newClientPair(t *testing.T) *Client {
	t.Helper()
	s := NewServer(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client())
}

func TestClientHealthAndList(t *testing.T) {
	c := newClientPair(t)
	ctx := context.Background()
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil); err != nil {
		t.Fatal(err)
	}
	names, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("fresh service lists %v", names)
	}
}

func TestClientErrorsAreTyped(t *testing.T) {
	c := newClientPair(t)
	ctx := context.Background()
	_, err := c.Status(ctx, "ghost")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.StatusCode != 404 {
		t.Errorf("status = %d, want 404", apiErr.StatusCode)
	}
	if apiErr.Error() == "" {
		t.Error("empty error text")
	}
}

func TestClientLifecycle(t *testing.T) {
	c := newClientPair(t)
	ctx := context.Background()

	if err := c.Create(ctx, "pv", CreateRequest{
		IntervalSeconds: 3600,
		Start:           testStart,
		Trees:           10,
	}); err != nil {
		t.Fatal(err)
	}
	// Conflict is surfaced.
	if err := c.Create(ctx, "pv", CreateRequest{IntervalSeconds: 3600, Start: testStart}); err == nil {
		t.Error("duplicate create should fail")
	}

	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 71)
	pts := make([]Point, len(d.Series.Values))
	for i, v := range d.Series.Values {
		pts[i] = Point{Value: v}
	}
	resp, err := c.Append(ctx, "pv", pts)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != len(pts) {
		t.Fatalf("total = %d, want %d", resp.Total, len(pts))
	}
	var windows []LabelWindow
	for _, w := range d.Labels.Windows() {
		windows = append(windows, LabelWindow{Start: w.Start, End: w.End, Anomalous: true})
	}
	if err := c.Label(ctx, "pv", windows); err != nil {
		t.Fatal(err)
	}
	cthld, err := c.Train(ctx, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if cthld <= 0 || cthld > 1.01 {
		t.Errorf("cthld = %v", cthld)
	}
	st, err := c.Status(ctx, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Trained {
		t.Error("status should show trained")
	}
	// Drive an alarm and read it back.
	last := d.Series.Values[len(d.Series.Values)-1]
	if _, err := c.Append(ctx, "pv", []Point{{Value: last * 0.05}, {Value: last * 0.05}}); err != nil {
		t.Fatal(err)
	}
	alarms, err := c.Alarms(ctx, "pv", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Error("no alarms after a 95% drop")
	}
	names, err := c.List(ctx)
	if err != nil || len(names) != 1 || names[0] != "pv" {
		t.Errorf("List = %v, %v", names, err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	c := newClientPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil); err == nil {
		t.Error("cancelled context should fail")
	}
}
