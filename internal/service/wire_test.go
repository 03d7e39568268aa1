package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opprentice/internal/tsdb"
)

// Tests in this file pin the HTTP wire behavior of the engine-backed server:
// batch-append atomicity as seen by a client, and the persisted field that
// surfaces WAL append failures.

// TestPointsBatchRejectedAtomicallyOverHTTP is the transport-level regression
// test for the partial-append bug: an out-of-order timestamp mid-batch must
// answer 422 with zero points appended. The old handler appended the points
// preceding the bad one before failing.
func TestPointsBatchRejectedAtomicallyOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	createSeries(t, ts, "pv", 60)

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: 1}, {Value: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed points: %d %s", resp.StatusCode, body)
	}

	batch := PointsRequest{Points: []Point{
		{Timestamp: testStart.Add(2 * time.Minute), Value: 3}, // correct next slot
		{Timestamp: testStart, Value: 4},                      // out of order
		{Value: 5},
	}}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", batch)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mid-batch out-of-order: %d %s, want 422", resp.StatusCode, body)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/series/pv", nil)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Points != 2 {
		t.Fatalf("rejected batch partially appended: %d points, want 2", st.Points)
	}
}

// failingStore wraps a real tsdb.Store but fails every durable append once
// armed; the engine must keep serving and surface the failure.
type failingStore struct {
	*tsdb.Store
	fail bool
}

func (f *failingStore) Submit(ctx context.Context, rec tsdb.Record, done func(error)) error {
	if f.fail && rec.Values != nil {
		done(errors.New("disk full"))
		return nil
	}
	return f.Store.Submit(ctx, rec, done)
}

// TestPersistedFieldSurfacesWALFailure checks the wire contract of the
// durability satellite: on a WAL append failure the response still succeeds
// (points are live in memory) but carries "persisted": false, and the
// opprenticed_wal_append_errors_total counter increments. Healthy appends
// omit the field entirely, keeping the response bytes identical to the
// pre-engine format.
func TestPersistedFieldSurfacesWALFailure(t *testing.T) {
	store, err := tsdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fs := &failingStore{Store: store}

	s := NewServer(discardLogger())
	s.Engine().SetStore(fs)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createSeries(t, ts, "pv", 60)

	// Healthy append: no "persisted" key on the wire.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy append: %d %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "persisted") {
		t.Fatalf("healthy append leaked the persisted field: %s", body)
	}

	// Failing WAL: 200 with "persisted": false and the counter bumped.
	fs.fail = true
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append with failing WAL must stay 200: %d %s", resp.StatusCode, body)
	}
	var pr struct {
		Appended  int   `json:"appended"`
		Total     int   `json:"total"`
		Persisted *bool `json:"persisted"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Persisted == nil || *pr.Persisted {
		t.Fatalf("response did not carry persisted=false: %s", body)
	}
	if pr.Total != 2 {
		t.Fatalf("points not live in memory: total=%d, want 2", pr.Total)
	}
	if v := metricValue(t, ts, "opprenticed_wal_append_errors_total"); v != 1 {
		t.Fatalf("opprenticed_wal_append_errors_total = %v, want 1", v)
	}

	// Recovery: the field disappears again.
	fs.fail = false
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: 3}},
	})
	if resp.StatusCode != http.StatusOK || strings.Contains(string(body), "persisted") {
		t.Fatalf("recovered append: %d %s", resp.StatusCode, body)
	}
}

// TestWireShapesUnchanged pins a few response bodies' exact key sets so the
// refactor provably did not move the API (the engine types' JSON tags are the
// wire format now).
func TestWireShapesUnchanged(t *testing.T) {
	ts := newTestServer(t)
	createSeries(t, ts, "pv", 60)

	_, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: 1}},
	})
	var pts map[string]json.RawMessage
	if err := json.Unmarshal(body, &pts); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"appended", "total"} {
		if _, ok := pts[k]; !ok {
			t.Errorf("points response lost key %q: %s", k, body)
		}
	}
	if len(pts) != 2 {
		t.Errorf("points response key set changed: %s", body)
	}

	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/series/pv", nil)
	var st map[string]json.RawMessage
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "points", "anomalous_points", "labeled_windows",
		"trained", "recall", "precision", "interval_seconds"} {
		if _, ok := st[k]; !ok {
			t.Errorf("status response lost key %q: %s", k, body)
		}
	}
}
