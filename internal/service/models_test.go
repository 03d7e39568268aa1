package service

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/kpigen"
	modelreg "opprentice/internal/registry"
)

// TestModelRoutesWithoutRegistry: the /v1/models routes answer 400 when the
// daemon runs without -model-dir, instead of pretending an empty registry.
func TestModelRoutesWithoutRegistry(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/models"},
		{http.MethodGet, "/v1/models/pv"},
		{http.MethodPost, "/v1/models/pv/rollback"},
	} {
		resp, body := doJSON(t, c.method, ts.URL+c.path, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s without registry: %d %s, want 400", c.method, c.path, resp.StatusCode, body)
		}
	}
}

// TestModelLifecycleOverHTTP drives publish → list → inspect → rollback over
// the wire, including the typed client, and checks the Prometheus exposition
// of the model counters.
func TestModelLifecycleOverHTTP(t *testing.T) {
	models, err := modelreg.Open(modelreg.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := NewServerWithEngine(engine.New(engine.Config{Log: log, Models: models}), log)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	createSeries(t, ts, "pv", 3600)
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 61)
	pts := make([]Point, len(d.Series.Values))
	for i, v := range d.Series.Values {
		pts[i] = Point{Value: v}
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{Points: pts}); resp.StatusCode != http.StatusOK {
		t.Fatalf("points: %d %s", resp.StatusCode, body)
	}
	var windows []LabelWindow
	for _, win := range d.Labels.Windows() {
		windows = append(windows, LabelWindow{Start: win.Start, End: win.End, Anomalous: true})
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/labels", LabelsRequest{Windows: windows}); resp.StatusCode != http.StatusOK {
		t.Fatalf("labels: %d %s", resp.StatusCode, body)
	}

	// Two trainings → two published generations (flushed deterministically).
	for i := 0; i < 2; i++ {
		if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/train", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("train %d: %d %s", i, resp.StatusCode, body)
		}
		s.eng.PublishModels()
	}

	client := NewClient(ts.URL, nil)
	ctx := context.Background()

	names, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "pv" {
		t.Fatalf("models list = %v, want [pv]", names)
	}

	man, err := client.ModelManifest(ctx, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if man.Series != "pv" || man.Current != 2 || len(man.Generations) != 2 {
		t.Fatalf("manifest = %+v, want series pv current 2 over 2 generations", man)
	}
	if man.Generations[0].Fingerprint == 0 || man.Generations[0].Size == 0 {
		t.Fatalf("generation entry incomplete: %+v", man.Generations[0])
	}

	// Unknown series → 404 through the error-kind mapping.
	if _, err := client.ModelManifest(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("manifest of unknown series: %v, want 404", err)
	}

	man, err = client.RollbackModel(ctx, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if man.Current != 1 {
		t.Fatalf("current = %d after rollback, want 1", man.Current)
	}
	// No older generation left → 422.
	if _, err := client.RollbackModel(ctx, "pv"); err == nil || !strings.Contains(err.Error(), "422") {
		t.Fatalf("rollback past oldest: %v, want 422", err)
	}

	// The wire shape is the registry's JSON: round-trip a raw GET.
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/models/pv", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest GET: %d %s", resp.StatusCode, body)
	}
	var raw modelreg.Manifest
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("manifest wire shape: %v in %s", err, body)
	}

	// Prometheus exposition carries the model counters.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"opprenticed_model_publish_total 2",
		`opprenticed_model_restore_total{mode="warm"} 0`,
		`opprenticed_model_restore_total{mode="cold"} 0`,
		"opprenticed_model_rollbacks_total 1",
		"opprenticed_model_checksum_failures_total 0",
		"opprenticed_restore_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
