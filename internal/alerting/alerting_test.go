package alerting

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// recorder captures notified events.
type recorder struct {
	mu     sync.Mutex
	events []Event
	err    error
}

func (r *recorder) Notify(_ context.Context, e Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	return r.err
}

func (r *recorder) all() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

var t0 = time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC)

func at(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }

func TestManagerCoalescesIncident(t *testing.T) {
	rec := &recorder{}
	m := &Manager{Series: "pv", Notifier: rec}
	ctx := context.Background()
	verdicts := []bool{false, true, true, true, false, false}
	probs := []float64{0.1, 0.7, 0.9, 0.8, 0.2, 0.1}
	for i, v := range verdicts {
		if err := m.Observe(ctx, at(i), v, probs[i]); err != nil {
			t.Fatal(err)
		}
	}
	events := rec.all()
	if len(events) != 2 {
		t.Fatalf("events = %+v, want open+resolved", events)
	}
	open, resolved := events[0], events[1]
	if open.State != "open" || !open.Start.Equal(at(1)) {
		t.Errorf("open = %+v", open)
	}
	if resolved.State != "resolved" || resolved.Points != 3 || resolved.PeakProbability != 0.9 {
		t.Errorf("resolved = %+v", resolved)
	}
	if !resolved.End.Equal(at(4)) {
		t.Errorf("resolved end = %v, want %v", resolved.End, at(4))
	}
}

func TestManagerResolveAfter(t *testing.T) {
	rec := &recorder{}
	m := &Manager{Series: "pv", Notifier: rec, ResolveAfter: 3}
	ctx := context.Background()
	// Anomaly, then 2 normals (not resolved), anomaly continues, then 3
	// normals (resolved).
	seq := []bool{true, false, false, true, false, false, false}
	for i, v := range seq {
		m.Observe(ctx, at(i), v, 0.9)
	}
	events := rec.all()
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[1].State != "resolved" || events[1].Points != 2 {
		t.Errorf("resolved = %+v (gap should not split the incident)", events[1])
	}
	if m.open {
		t.Error("incident should be closed")
	}
}

func TestManagerRateLimit(t *testing.T) {
	rec := &recorder{}
	m := &Manager{Series: "pv", Notifier: rec, MinInterval: 10 * time.Minute}
	ctx := context.Background()
	m.Observe(ctx, at(0), true, 0.9) // notified
	m.Observe(ctx, at(1), false, 0.1)
	m.Observe(ctx, at(2), true, 0.9) // suppressed (2 min later)
	m.Observe(ctx, at(3), false, 0.1)
	m.Observe(ctx, at(20), true, 0.9) // notified again
	opens := 0
	for _, e := range rec.all() {
		if e.State == "open" {
			opens++
		}
	}
	if opens != 2 {
		t.Errorf("open notifications = %d, want 2", opens)
	}
	if m.suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", m.suppressed)
	}
}

func TestManagerNotifierErrorDoesNotCorruptState(t *testing.T) {
	rec := &recorder{err: errors.New("boom")}
	m := &Manager{Series: "pv", Notifier: rec}
	ctx := context.Background()
	if err := m.Observe(ctx, at(0), true, 0.9); err == nil {
		t.Error("notifier error should propagate")
	}
	if !m.open {
		t.Error("incident should still be open despite notify failure")
	}
}

func TestWebhookNotifier(t *testing.T) {
	var got Event
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("bad request: %s %s", r.Method, r.Header.Get("Content-Type"))
		}
		body, _ := io.ReadAll(r.Body)
		_ = json.Unmarshal(body, &got)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	n := WebhookNotifier{URL: ts.URL, Client: ts.Client()}
	e := Event{Series: "pv", State: "open", Start: t0, Points: 3, PeakProbability: 0.8}
	if err := n.Notify(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if got.Series != "pv" || got.Points != 3 {
		t.Errorf("delivered = %+v", got)
	}
}

func TestWebhookNotifierErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer ts.Close()
	n := WebhookNotifier{URL: ts.URL, Client: ts.Client()}
	if err := n.Notify(context.Background(), Event{}); err == nil {
		t.Error("5xx should be an error")
	}
	down := WebhookNotifier{URL: "http://127.0.0.1:1"}
	if err := down.Notify(context.Background(), Event{}); err == nil {
		t.Error("unreachable webhook should be an error")
	}
}
