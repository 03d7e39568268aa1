package service

// Fault-injection and degradation tests for the service layer: corrupt WALs
// are quarantined on restore, panicking detector configurations degrade
// instead of crashing, webhook trouble never slows ingest, graceful shutdown
// completes in-flight requests and flushes the WAL, and the typed client
// retries idempotent requests.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opprentice/internal/alerting"
	"opprentice/internal/detectors"
	"opprentice/internal/engine"
	"opprentice/internal/faultinject"
	"opprentice/internal/kpigen"
	"opprentice/internal/tsdb"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// waitUntil polls cond until it holds or a 5s deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue scrapes /v1/metrics and returns the named sample's value.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// trainOn bootstraps nine weeks of hourly PV data onto an existing series,
// labels the known anomalies, trains, and returns the dataset so the test
// can stream continuations.
func trainOn(t *testing.T, ts *httptest.Server, name string, seed int64) *kpigen.Dataset {
	t.Helper()
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, seed)
	pts := make([]Point, len(d.Series.Values))
	for i, v := range d.Series.Values {
		pts[i] = Point{Value: v}
	}
	if resp, b := doJSON(t, http.MethodPost, ts.URL+"/v1/series/"+name+"/points", PointsRequest{Points: pts}); resp.StatusCode != http.StatusOK {
		t.Fatalf("bootstrap: %d %s", resp.StatusCode, b)
	}
	var windows []LabelWindow
	for _, w := range d.Labels.Windows() {
		windows = append(windows, LabelWindow{Start: w.Start, End: w.End, Anomalous: true})
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/"+name+"/labels", LabelsRequest{Windows: windows})
	if resp, b := doJSON(t, http.MethodPost, ts.URL+"/v1/series/"+name+"/train", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, b)
	}
	return d
}

// TestFaultRestoreQuarantinesCorruptLog is the regression for "one corrupt
// log of three": restore must quarantine the damaged series and keep serving
// the other two.
func TestFaultRestoreQuarantinesCorruptLog(t *testing.T) {
	dir := t.TempDir()
	store, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewServerWithEngine(engine.New(engine.Config{Log: discardLogger(), Store: store}), discardLogger())
	ts1 := httptest.NewServer(s1.Handler())
	for _, name := range []string{"a", "b", "c"} {
		createSeries(t, ts1, name, 3600)
		doJSON(t, http.MethodPost, ts1.URL+"/v1/series/"+name+"/points", PointsRequest{
			Points: []Point{{Value: 1}, {Value: 2}, {Value: 3}},
		})
		doJSON(t, http.MethodPost, ts1.URL+"/v1/series/"+name+"/labels", LabelsRequest{
			Windows: []LabelWindow{{Start: 0, End: 1, Anomalous: true}},
		})
	}
	ts1.Close()
	store.Close()

	// Rot one byte inside b's newest points frame. The label frame behind it
	// makes this mid-segment corruption, not a forgivable torn tail.
	if err := tsdb.CorruptPointsFrame(dir, "b"); err != nil {
		t.Fatal(err)
	}

	store2, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	s2 := NewServerWithEngine(engine.New(engine.Config{Log: discardLogger(), Store: store2}), discardLogger())
	restored, err := s2.Restore()
	if err != nil {
		t.Fatalf("Restore must survive one corrupt log: %v", err)
	}
	if restored != 2 {
		t.Fatalf("restored = %d, want 2", restored)
	}
	// The quarantine tombstones the series but keeps the damaged frames on
	// disk for inspection until compaction.
	if _, err := store2.Load("b"); err == nil || errors.Is(err, tsdb.ErrCorrupt) {
		t.Errorf("Load(b) after quarantine = %v, want a not-found error", err)
	}
	if stats, err := tsdb.Dump(dir, io.Discard, tsdb.DumpOptions{Series: "b"}); err != nil || stats.CorruptFrames == 0 {
		t.Errorf("damaged frames not preserved (stats %+v, err %v)", stats, err)
	}

	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for _, name := range []string{"a", "c"} {
		resp, body := doJSON(t, http.MethodGet, ts2.URL+"/v1/series/"+name, nil)
		var st Status
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil || st.Points != 3 {
			t.Errorf("healthy series %s: %d %s", name, resp.StatusCode, body)
		}
	}
	if resp, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/series/b", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("quarantined series b = %d, want 404", resp.StatusCode)
	}
	if v := metricValue(t, ts2, "opprenticed_wal_quarantined_total"); v != 1 {
		t.Errorf("wal_quarantined_total = %v, want 1", v)
	}
	// The name is usable again for a fresh series.
	createSeries(t, ts2, "b", 3600)
}

// TestFaultPanickingDetectorConfigDegrades proves the acceptance criterion:
// with a panicking detector configuration in the registry, the service still
// trains, still answers every /points request with a verdict, and surfaces
// the sandboxed panic through /v1/metrics.
func TestFaultPanickingDetectorConfigDegrades(t *testing.T) {
	srv := NewServerWithEngine(engine.New(engine.Config{
		Log: discardLogger(),
		Registry: func(iv time.Duration) ([]detectors.Detector, error) {
			ds, err := detectors.Registry(iv)
			if err != nil {
				return nil, err
			}
			return append(ds, &faultinject.PanickingDetector{ConfigName: "boom(cfg)"}), nil
		},
	}), discardLogger())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/series/pv", CreateRequest{
		IntervalSeconds: 3600, Start: testStart, Trees: 10,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	d := trainOn(t, ts, "pv", 81)

	// Every streamed point still gets a verdict despite the dead detector.
	stream := make([]Point, 10)
	for i := range stream {
		stream[i] = Point{Value: d.Series.Values[i]}
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: stream})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("points: %d %s", resp.StatusCode, body)
	}
	var pr PointsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Verdicts) != len(stream) {
		t.Errorf("verdicts = %d, want %d (every point must be classified)", len(pr.Verdicts), len(stream))
	}
	if v := metricValue(t, ts, "opprenticed_detector_panics_total"); v < 1 {
		t.Errorf("detector_panics_total = %v, want >= 1", v)
	}
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	if !strings.Contains(string(body), `opprenticed_series_degraded_detectors{series="pv"} 1`) {
		t.Errorf("degraded gauge missing from metrics:\n%s", body)
	}
}

// TestFaultWebhookRetryKeepsIngestFast proves the acceptance criterion: a
// webhook endpoint that fails three times and then succeeds neither slows
// /points nor causes duplicate delivery.
func TestFaultWebhookRetryKeepsIngestFast(t *testing.T) {
	var failuresLeft atomic.Int64
	failuresLeft.Store(3)
	var mu sync.Mutex
	var delivered []map[string]any
	receiver := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failuresLeft.Add(-1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var e map[string]any
		if json.Unmarshal(body, &e) == nil {
			mu.Lock()
			delivered = append(delivered, e)
			mu.Unlock()
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer receiver.Close()

	srv := NewServerWithEngine(engine.New(engine.Config{
		Log: discardLogger(),
		Notify: alerting.PipelineConfig{
			BaseDelay: time.Millisecond,
			MaxDelay:  4 * time.Millisecond,
			Log:       discardLogger(),
		},
	}), discardLogger())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/series/pv", CreateRequest{
		IntervalSeconds: 3600, Start: testStart, Trees: 10, WebhookURL: receiver.URL,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	d := trainOn(t, ts, "pv", 81)

	// A sustained drop opens an incident while the webhook is refusing
	// deliveries; the ingest request must not feel any of it.
	last := d.Series.Values[len(d.Series.Values)-1]
	start := time.Now()
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: last * 0.05}, {Value: last * 0.05}, {Value: last * 0.05}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("points: %d %s", resp.StatusCode, body)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("ingest took %v against a failing webhook; delivery must be asynchronous", el)
	}

	waitUntil(t, "eventual webhook delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) >= 1
	})
	time.Sleep(50 * time.Millisecond) // give a hypothetical duplicate time to appear
	mu.Lock()
	opens := 0
	for _, e := range delivered {
		if e["state"] == "open" {
			opens++
		}
	}
	mu.Unlock()
	if opens != 1 {
		t.Errorf("incident-open delivered %d times, want exactly once", opens)
	}
	if v := metricValue(t, ts, "opprenticed_notify_retries_total"); v < 3 {
		t.Errorf("notify_retries_total = %v, want >= 3", v)
	}
	if v := metricValue(t, ts, "opprenticed_notify_delivered_total"); v < 1 {
		t.Errorf("notify_delivered_total = %v, want >= 1", v)
	}
}

// TestFaultGracefulShutdownCompletesInflight exercises the satellite: an
// in-flight /points request completes during http.Server.Shutdown and its
// writes are durable in the WAL afterwards.
func TestFaultGracefulShutdownCompletesInflight(t *testing.T) {
	dir := t.TempDir()
	store, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithEngine(engine.New(engine.Config{Log: discardLogger(), Store: store}), discardLogger())
	httpSrv := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	resp, body := doJSON(t, http.MethodPut, base+"/v1/series/pv", CreateRequest{
		IntervalSeconds: 3600, Start: testStart, Trees: 10,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}

	// Start a /points request whose body arrives slowly, so it is mid-flight
	// when Shutdown begins.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/series/pv/points", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resCh <- result{resp: resp, body: b}
	}()
	if _, err := pw.Write([]byte(`{"points":[{"value":1}`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handler start decoding

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let Shutdown close the listener

	// Finish the body: graceful shutdown must let this request complete.
	if _, err := pw.Write([]byte(`,{"value":2},{"value":3}]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request: %d %s", res.resp.StatusCode, res.body)
	}
	var ptsResp PointsResponse
	if err := json.Unmarshal(res.body, &ptsResp); err != nil {
		t.Fatal(err)
	}
	if ptsResp.Appended != 3 {
		t.Errorf("appended = %d, want 3", ptsResp.Appended)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The daemon's shutdown order: HTTP drained, then pipelines, then store.
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything the acknowledged request wrote is in the WAL.
	store2, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	got, err := store2.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 3 {
		t.Errorf("WAL replay = %v, want the 3 acknowledged points", got.Values)
	}
}

// TestFaultMetricsExposeFaultCounters pins the names of the fault-layer
// metrics so dashboards can rely on them from day one.
func TestFaultMetricsExposeFaultCounters(t *testing.T) {
	ts := newTestServer(t)
	for _, name := range []string{
		"opprenticed_detector_panics_total",
		"opprenticed_notify_retries_total",
		"opprenticed_notify_dropped_total",
		"opprenticed_notify_delivered_total",
		"opprenticed_wal_quarantined_total",
	} {
		if v := metricValue(t, ts, name); v != 0 {
			t.Errorf("%s = %v on a fresh server, want 0", name, v)
		}
	}
}

// oneAttempt answers every request with code and runs call against that
// server: call must return an APIError with code after exactly one request,
// as the client never re-sends.
func oneAttempt(t *testing.T, code int, call func(*Client) error) {
	t.Helper()
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, code, errors.New("refused"))
	}))
	defer backend.Close()
	var apiErr *APIError
	if err := call(NewClient(backend.URL, backend.Client())); !errors.As(err, &apiErr) || apiErr.StatusCode != code {
		t.Fatalf("err = %v, want a %d APIError", err, code)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d requests, want exactly 1", got)
	}
}

// A retried POST could double-apply.
func TestFaultClientNeverRetriesNonIdempotent(t *testing.T) {
	oneAttempt(t, http.StatusInternalServerError, func(c *Client) error {
		_, err := c.Train(context.Background(), "pv")
		return err
	})
}

func TestFaultClientStopsRetryingOn4xx(t *testing.T) {
	oneAttempt(t, http.StatusNotFound, func(c *Client) error {
		_, err := c.Status(context.Background(), "ghost")
		return err
	})
}

// A blind resend of a shed batch could double-append.
func TestFaultClientNeverRetriesPointsOn429(t *testing.T) {
	oneAttempt(t, http.StatusTooManyRequests, func(c *Client) error {
		_, err := c.Append(context.Background(), "pv", []Point{{Timestamp: time.Unix(0, 0), Value: 1}})
		return err
	})
}
