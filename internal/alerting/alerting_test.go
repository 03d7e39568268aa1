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

// TestManagerResolveAfter: one normal point resolves an incident, and the
// next anomalous point opens and announces a new one at once.
func TestManagerResolveAfter(t *testing.T) {
	rec := &recorder{}
	m := &Manager{Series: "pv", Notifier: rec}
	for i, v := range []bool{true, true, false, true} {
		m.Observe(context.Background(), at(i), v, 0.9)
	}
	if e := rec.all(); len(e) != 3 || e[1].State != "resolved" || e[1].Points != 2 || !e[1].End.Equal(at(2)) ||
		e[2].State != "open" || !e[2].Start.Equal(at(3)) {
		t.Fatalf("events = %+v, want open, resolved at point 2, open at point 3", e)
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

// TestPipelineDefaultJitter: a zero config retries with the documented
// jitter, like every other zero field takes its default; an out-of-range
// value does too, and an in-range one is kept.
func TestPipelineDefaultJitter(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{0, 0.2}, {-1, 0.2}, {1.5, 0.2}, {0.5, 0.5}, {1, 1}} {
		cfg := PipelineConfig{Jitter: c.in}
		cfg.applyDefaults()
		if cfg.Jitter != c.want {
			t.Errorf("Jitter %v after applyDefaults = %v, want %v", c.in, cfg.Jitter, c.want)
		}
	}
}
