// Package alerting turns point-level anomaly verdicts into operator-facing
// incidents: consecutive anomalous points coalesce into one incident (the
// window semantics operators think in, §4.2), and delivery is pluggable (a
// webhook, or any Notifier). This is the "report to operators and let them
// decide" hand-off the paper's §6 prescribes.
package alerting

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Event is one notification about an incident.
type Event struct {
	// Series is the KPI name.
	Series string `json:"series"`
	// State is "open" when an incident starts and "resolved" when it ends.
	State string `json:"state"`
	// Start is the first anomalous point's timestamp; End (resolved only)
	// is the first normal point after the incident.
	Start time.Time `json:"start"`
	End   time.Time `json:"end,omitempty"`
	// Points is the number of anomalous points so far.
	Points int `json:"points"`
	// PeakProbability is the largest classifier probability in the incident.
	PeakProbability float64 `json:"peak_probability"`
}

// Notifier delivers events. Implementations must be safe for concurrent
// use.
type Notifier interface {
	Notify(ctx context.Context, e Event) error
}

// WebhookNotifier POSTs events as JSON to a URL.
type WebhookNotifier struct {
	URL string
	// Client may be nil for a 10-second-timeout default.
	Client *http.Client
}

// Notify implements Notifier.
func (n WebhookNotifier) Notify(ctx context.Context, e Event) error {
	body, err := json.Marshal(e)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.URL, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	client := n.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("alerting: webhook %s returned %d", n.URL, resp.StatusCode)
	}
	return nil
}

// Manager coalesces verdicts into incidents and notifies on transitions: an
// anomalous point opens an incident, and the first normal point after it
// resolves it. One Manager watches one series; it is safe for concurrent use.
type Manager struct {
	// Series names the KPI in events.
	Series string
	// Notifier receives open/resolved events (required).
	Notifier Notifier

	mu     sync.Mutex
	open   bool
	start  time.Time
	points int
	peak   float64
}

// Observe feeds one classified point. ts is the point's timestamp,
// anomalous the verdict, probability the classifier score. Notification
// errors are returned but do not disturb the incident state.
func (m *Manager) Observe(ctx context.Context, ts time.Time, anomalous bool, probability float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case anomalous && !m.open:
		m.open = true
		m.start = ts
		m.points = 1
		m.peak = probability
		return m.notify(ctx, Event{
			Series: m.Series, State: "open", Start: m.start,
			Points: m.points, PeakProbability: m.peak,
		})
	case anomalous:
		m.points++
		if probability > m.peak {
			m.peak = probability
		}
	case m.open:
		e := Event{
			Series: m.Series, State: "resolved", Start: m.start, End: ts,
			Points: m.points, PeakProbability: m.peak,
		}
		m.open = false
		m.points = 0
		return m.notify(ctx, e)
	}
	return nil
}

// notify must be called with the mutex held; the notifier itself runs
// synchronously so callers control the delivery context.
func (m *Manager) notify(ctx context.Context, e Event) error {
	if m.Notifier == nil {
		return nil
	}
	return m.Notifier.Notify(ctx, e)
}
