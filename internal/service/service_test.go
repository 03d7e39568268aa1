package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/kpigen"
	"opprentice/internal/tsdb"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := NewServer(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

var testStart = time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC)

func createSeries(t *testing.T, ts *httptest.Server, name string, intervalSec int) {
	t.Helper()
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/series/"+name, CreateRequest{
		IntervalSeconds: intervalSec,
		Start:           testStart,
		Trees:           10,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestCreateValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		req  CreateRequest
		want int
	}{
		{"bad-interval", CreateRequest{IntervalSeconds: 7, Start: testStart}, http.StatusBadRequest},
		{"no-start", CreateRequest{IntervalSeconds: 3600}, http.StatusBadRequest},
		{"good", CreateRequest{IntervalSeconds: 3600, Start: testStart}, http.StatusCreated},
	}
	for _, c := range cases {
		resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/series/"+c.name, c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: got %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
	}
	// Duplicate name conflicts.
	resp, _ := doJSON(t, http.MethodPut, ts.URL+"/v1/series/good",
		CreateRequest{IntervalSeconds: 3600, Start: testStart})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate: got %d, want 409", resp.StatusCode)
	}
}

func TestUnknownSeries404(t *testing.T) {
	ts := newTestServer(t)
	for _, ep := range []string{"/v1/series/none", "/v1/series/none/alarms"} {
		resp, _ := doJSON(t, http.MethodGet, ts.URL+ep, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", ep, resp.StatusCode)
		}
	}
}

func TestPointsAndLabelsValidation(t *testing.T) {
	ts := newTestServer(t)
	createSeries(t, ts, "kpi", 3600)

	// Empty points rejected.
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/series/kpi/points", PointsRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty points: %d", resp.StatusCode)
	}
	// Append two points.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/kpi/points", PointsRequest{
		Points: []Point{{Value: 1}, {Value: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("points: %d %s", resp.StatusCode, body)
	}
	var pr PointsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Appended != 2 || pr.Total != 2 {
		t.Errorf("points response = %+v", pr)
	}
	// Out-of-order timestamp rejected.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/series/kpi/points", PointsRequest{
		Points: []Point{{Timestamp: testStart, Value: 3}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("out-of-order: %d", resp.StatusCode)
	}
	// Correct next timestamp accepted.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/series/kpi/points", PointsRequest{
		Points: []Point{{Timestamp: testStart.Add(2 * time.Hour), Value: 3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-order: %d", resp.StatusCode)
	}
	// Label out of range rejected.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/series/kpi/labels", LabelsRequest{
		Windows: []LabelWindow{{Start: 0, End: 99, Anomalous: true}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad window: %d", resp.StatusCode)
	}
	// Valid label applied.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/kpi/labels", LabelsRequest{
		Windows: []LabelWindow{{Start: 0, End: 2, Anomalous: true}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("label: %d %s", resp.StatusCode, body)
	}
	var lr map[string]int
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr["anomalous_points"] != 2 || lr["labeled_windows"] != 1 {
		t.Errorf("label response = %v", lr)
	}
}

// TestFullLifecycle drives the whole operational loop over HTTP: bootstrap
// history, label, train, stream points with verdicts, check alarms, retrain.
func TestFullLifecycle(t *testing.T) {
	ts := newTestServer(t)
	createSeries(t, ts, "pv", 3600)

	// Bootstrap with 9 weeks of hourly synthetic PV and its labels.
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 51)

	batch := make([]Point, 0, 500)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("points: %d %s", resp.StatusCode, body)
		}
		batch = batch[:0]
	}
	for _, v := range d.Series.Values {
		batch = append(batch, Point{Value: v})
		if len(batch) == 500 {
			flush()
		}
	}
	flush()

	var windows []LabelWindow
	for _, win := range d.Labels.Windows() {
		windows = append(windows, LabelWindow{Start: win.Start, End: win.End, Anomalous: true})
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/labels", LabelsRequest{Windows: windows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("labels: %d %s", resp.StatusCode, body)
	}

	// Train.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/train", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, body)
	}

	// Status shows a trained monitor.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/series/pv", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Trained || st.Points != d.Series.Len() {
		t.Fatalf("status = %+v", st)
	}

	// Stream a blatant anomaly: verdicts should flag it and an alarm appear.
	next := d.Series.Values[d.Series.Len()-1]
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: next * 0.1}, {Value: next * 0.1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	var pr PointsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Verdicts) != 2 {
		t.Fatalf("verdicts = %+v", pr.Verdicts)
	}
	if !pr.Verdicts[0].Anomalous && !pr.Verdicts[1].Anomalous {
		t.Errorf("90%% drop not flagged: %+v", pr.Verdicts)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/series/pv/alarms", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alarms: %d", resp.StatusCode)
	}
	var ar map[string][]Alarm
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar["alarms"]) == 0 {
		t.Error("no alarms recorded")
	}

	// Alarms with a future 'since' filter are empty.
	future := time.Now().Add(100 * 24 * time.Hour).UTC().Format(time.RFC3339)
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/series/pv/alarms?since="+future, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alarms since: %d", resp.StatusCode)
	}
	_ = json.Unmarshal(body, &ar)
	if len(ar["alarms"]) != 0 {
		t.Errorf("future since returned %d alarms", len(ar["alarms"]))
	}

	// Retrain (now includes the streamed points).
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/train", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain: %d %s", resp.StatusCode, body)
	}

	// List shows the series.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/series", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"pv"`)) {
		t.Errorf("list: %d %s", resp.StatusCode, body)
	}
}

func TestTrainWithoutAnomaliesFails(t *testing.T) {
	ts := newTestServer(t)
	createSeries(t, ts, "flat", 3600)
	pts := make([]Point, 0, 24*7*9)
	for i := 0; i < 24*7*9; i++ {
		pts = append(pts, Point{Value: float64(i % 24)})
	}
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/series/flat/points", PointsRequest{Points: pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("points: %d", resp.StatusCode)
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/flat/train", nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("train without labels: %d %s", resp.StatusCode, body)
	}
}

func TestBadSinceParam(t *testing.T) {
	ts := newTestServer(t)
	createSeries(t, ts, "x", 3600)
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/series/x/alarms?since=yesterday", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since: %d", resp.StatusCode)
	}
}

func TestConcurrentIngest(t *testing.T) {
	ts := newTestServer(t)
	// Ten series ingesting concurrently must not race (run with -race).
	done := make(chan error, 10)
	for g := 0; g < 10; g++ {
		name := fmt.Sprintf("kpi%d", g)
		createSeries(t, ts, name, 3600)
		go func(name string) {
			for i := 0; i < 50; i++ {
				resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/series/"+name+"/points",
					PointsRequest{Points: []Point{{Value: float64(i)}}})
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("%s: %d", name, resp.StatusCode)
					return
				}
			}
			done <- nil
		}(name)
	}
	for g := 0; g < 10; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWebhookIncidentNotifications(t *testing.T) {
	// A receiver that records incident events.
	var mu sync.Mutex
	var events []map[string]any
	arrived := make(chan struct{}, 64)
	receiver := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var e map[string]any
		if err := json.Unmarshal(body, &e); err == nil {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer receiver.Close()

	ts := newTestServer(t)
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/series/pv", CreateRequest{
		IntervalSeconds: 3600,
		Start:           testStart,
		Trees:           10,
		WebhookURL:      receiver.URL,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}

	// Bootstrap, label, train (as in TestFullLifecycle but condensed).
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 81)
	pts := make([]Point, len(d.Series.Values))
	for i, v := range d.Series.Values {
		pts[i] = Point{Value: v}
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: pts}); resp.StatusCode != http.StatusOK {
		t.Fatal("bootstrap failed")
	}
	var windows []LabelWindow
	for _, w := range d.Labels.Windows() {
		windows = append(windows, LabelWindow{Start: w.Start, End: w.End, Anomalous: true})
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/labels", LabelsRequest{Windows: windows})
	if resp, b := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/train", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, b)
	}

	// Sustained drop opens an incident; recovery resolves it.
	last := d.Series.Values[len(d.Series.Values)-1]
	stream := []Point{{Value: last * 0.05}, {Value: last * 0.05}, {Value: last * 0.05}}
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: stream})
	recovery := make([]Point, 30)
	for i := range recovery {
		recovery[i] = Point{Value: d.Series.Values[i]}
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: recovery})

	// Delivery is asynchronous (alerting.Pipeline): the receiver signals
	// each arrival on a channel, so the wait is event-driven, not a sleep
	// poll.
	timeout := time.After(5 * time.Second)
	for {
		mu.Lock()
		var open, resolved int
		for _, e := range events {
			switch e["state"] {
			case "open":
				open++
			case "resolved":
				resolved++
			}
		}
		snapshot := fmt.Sprintf("%v", events)
		mu.Unlock()
		if open > 0 && resolved > 0 {
			return
		}
		select {
		case <-arrived:
		case <-timeout:
			t.Fatalf("open=%d resolved=%d webhooks delivered (events: %s)", open, resolved, snapshot)
		}
	}
}

func TestAutoRetrain(t *testing.T) {
	// Retraining is asynchronous (ingest never blocks on a training round):
	// take the completion edge from the engine's TrainDone hook instead of
	// polling the status endpoint.
	retrained := make(chan struct{}, 1)
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := NewServerWithEngine(engine.New(engine.Config{Log: log, Hooks: engine.Hooks{
		TrainDone: func(name string, res engine.TrainResult, err error) {
			if err != nil {
				t.Errorf("training failed: %v", err)
			}
			select {
			case retrained <- struct{}{}:
			default:
			}
		},
	}}), log)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 91)
	ppw, _ := d.Series.PointsPerWeek()

	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/series/pv", CreateRequest{
		IntervalSeconds: 3600,
		Start:           testStart,
		Trees:           10,
		RetrainEvery:    ppw,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	// Bootstrap 9 weeks + labels, train once.
	boot := 9 * ppw
	pts := make([]Point, boot)
	for i := 0; i < boot; i++ {
		pts[i] = Point{Value: d.Series.Values[i]}
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: pts})
	var windows []LabelWindow
	for _, w := range d.Labels.Windows() {
		if w.End <= boot {
			windows = append(windows, LabelWindow{Start: w.Start, End: w.End, Anomalous: true})
		}
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/labels", LabelsRequest{Windows: windows})
	if resp, b := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/train", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, b)
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/series/pv", nil)
	var before Status
	json.Unmarshal(body, &before)
	<-retrained // the synchronous training's own edge, fired before its response

	// Stream one more week: the auto-retrain should fire.
	week := make([]Point, ppw)
	for i := 0; i < ppw; i++ {
		week[i] = Point{Value: d.Series.Values[boot+i]}
	}
	if resp, b := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: week}); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, b)
	}
	select {
	case <-retrained:
	case <-time.After(15 * time.Second):
		t.Fatal("auto-retrain did not fire")
	}
	var after Status
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/series/pv", nil)
	json.Unmarshal(body, &after)
	if !after.TrainedAt.After(before.TrainedAt) {
		t.Fatalf("auto-retrain did not swap the monitor: before %v, after %v", before.TrainedAt, after.TrainedAt)
	}
}

func TestDurableRestoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	// First server generation: create, ingest, label, train.
	s1 := NewServer(logger)
	s1.SetStore(store)
	ts1 := httptest.NewServer(s1.Handler())
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 101)
	resp, body := doJSON(t, http.MethodPut, ts1.URL+"/v1/series/pv", CreateRequest{
		IntervalSeconds: 3600, Start: testStart, Trees: 10,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	pts := make([]Point, len(d.Series.Values))
	for i, v := range d.Series.Values {
		pts[i] = Point{Value: v}
	}
	doJSON(t, http.MethodPost, ts1.URL+"/v1/series/pv/points", PointsRequest{Points: pts})
	var windows []LabelWindow
	for _, w := range d.Labels.Windows() {
		windows = append(windows, LabelWindow{Start: w.Start, End: w.End, Anomalous: true})
	}
	doJSON(t, http.MethodPost, ts1.URL+"/v1/series/pv/labels", LabelsRequest{Windows: windows})
	if resp, b := doJSON(t, http.MethodPost, ts1.URL+"/v1/series/pv/train", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, b)
	}
	ts1.Close()
	store.Close()

	// Second generation: reopen the store and restore.
	store2, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	s2 := NewServer(logger)
	s2.SetStore(store2)
	restored, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1", restored)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	resp, body = doJSON(t, http.MethodGet, ts2.URL+"/v1/series/pv", nil)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Points != d.Series.Len() {
		t.Errorf("points = %d, want %d", st.Points, d.Series.Len())
	}
	if st.AnomalousPoints != timeseriesCount(d.Labels) {
		t.Errorf("anomalous = %d, want %d", st.AnomalousPoints, timeseriesCount(d.Labels))
	}
	if !st.Trained {
		t.Error("restore should retrain a labeled series")
	}
	// Detection still works after restart.
	last := d.Series.Values[len(d.Series.Values)-1]
	resp, body = doJSON(t, http.MethodPost, ts2.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: last * 0.05}},
	})
	var pr PointsResponse
	json.Unmarshal(body, &pr)
	if len(pr.Verdicts) != 1 || !pr.Verdicts[0].Anomalous {
		t.Errorf("post-restore verdicts = %+v", pr.Verdicts)
	}
}

func timeseriesCount(labels []bool) int {
	n := 0
	for _, l := range labels {
		if l {
			n++
		}
	}
	return n
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	createSeries(t, ts, "kpi", 3600)
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/kpi/points", PointsRequest{
		Points: []Point{{Value: 1}, {Value: 2}, {Value: 3}},
	})
	doJSON(t, http.MethodGet, ts.URL+"/v1/series/ghost", nil) // bump error counter

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		"opprenticed_points_ingested_total 3",
		`opprenticed_series_points{series="kpi"} 3`,
		"opprenticed_request_errors_total 1",
		"# TYPE opprenticed_alarms_raised_total counter",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestDashboard(t *testing.T) {
	ts := newTestServer(t)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty dashboard: %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("No series yet")) {
		t.Error("empty state missing")
	}
	createSeries(t, ts, "pv", 3600)
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{Value: float64(i)}
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: pts})
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard: %d", resp.StatusCode)
	}
	for _, want := range []string{"<h2>pv</h2>", "<svg", "50 points", "not trained yet"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}
