package engine

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"testing"
	"time"

	"opprentice/internal/kpigen"
)

// trainableSeriesCfg is trainableSeries with a custom engine Config: a
// trained hourly PV series with the last week of generated values held back
// for the caller to stream.
func trainableSeriesCfg(t *testing.T, weeks int, cfg Config) (*Engine, []float64, int) {
	t.Helper()
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = weeks
	d := kpigen.Generate(p, 91)
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}
	e := New(cfg)
	t.Cleanup(e.Close)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
		t.Fatal(err)
	}
	boot := (weeks - 1) * ppw
	pts := make([]Point, boot)
	for i := range pts {
		pts[i] = Point{Value: d.Series.Values[i]}
	}
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}
	var windows []Window
	for _, w := range d.Labels.Windows() {
		if w.End <= boot {
			windows = append(windows, Window{Start: w.Start, End: w.End, Anomalous: true})
		}
	}
	if _, err := e.Label(context.Background(), "pv", windows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatal(err)
	}
	return e, d.Series.Values[boot:], boot
}

// TestQueriesSurfaceAndAnswer drives the full query lifecycle: a band of 1.0
// makes every trained verdict a query candidate, so streaming points after
// training deterministically fills the queue.
func TestQueriesSurfaceAndAnswer(t *testing.T) {
	e, rest, boot := trainableSeriesCfg(t, 9, Config{QueryBand: 1, QueryDepth: 4, DriftThreshold: math.Inf(1)})
	pts := make([]Point, 24)
	for i := range pts {
		pts[i] = Point{Value: rest[i]}
	}
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}

	qs, err := e.Queries(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no queries surfaced with band 1.0 after trained appends")
	}
	q := qs[0]
	if q.Series != "pv" || q.Start < boot || q.End <= q.Start {
		t.Fatalf("malformed query %+v", q)
	}
	if q.Score <= 0 || q.Score > 1 {
		t.Fatalf("query score %v outside (0, 1]", q.Score)
	}
	if !q.EndTime.After(q.StartTime) {
		t.Fatalf("query times not ordered: %v .. %v", q.StartTime, q.EndTime)
	}

	// The engine-wide listing includes the series' queries.
	all, err := e.Queries(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(qs) {
		t.Fatalf("engine-wide listing has %d queries, per-series %d", len(all), len(qs))
	}

	before, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AnswerQuery(context.Background(), "pv", q.Start, q.End, true)
	if err != nil {
		t.Fatalf("AnswerQuery: %v", err)
	}
	if res.AnomalousPoints < before.AnomalousPoints+(q.End-q.Start) {
		t.Fatalf("answered labels not applied: %d anomalous points, had %d and answered %d more",
			res.AnomalousPoints, before.AnomalousPoints, q.End-q.Start)
	}
	if got := e.Counters().QueriesAnswered; got != 1 {
		t.Fatalf("QueriesAnswered = %d, want 1", got)
	}

	// Answering twice (or answering a never-queued window) is rejected.
	if _, err := e.AnswerQuery(context.Background(), "pv", q.Start, q.End, true); !errors.Is(err, ErrRejected) {
		t.Fatalf("re-answer: got %v, want ErrRejected", err)
	}
	if _, err := e.AnswerQuery(context.Background(), "nope", 0, 1, true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown series: got %v, want ErrNotFound", err)
	}

	qs, err = e.Queries(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	for _, left := range qs {
		if left.Start == q.Start && left.End == q.End {
			t.Fatalf("answered query still listed: %+v", left)
		}
	}

	// The per-series gauges reflect the queue.
	if got := exported(e)[`opprenticed_query_queue_depth{series="pv"}`]; got != float64(len(qs)) {
		t.Fatalf("query queue depth gauge = %v, want %d", got, len(qs))
	}
}

// TestRetrainClearsQueries pins the generation contract: pending queries
// were scored by the outgoing model, so a retrain swap empties the queue
// and drift-triggered retrains never fire on a stationary stream.
func TestRetrainClearsQueries(t *testing.T) {
	e, rest, _ := trainableSeriesCfg(t, 9, Config{QueryBand: 1, QueryDepth: 4})
	pts := make([]Point, len(rest))
	for i := range pts {
		pts[i] = Point{Value: rest[i]}
	}
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}
	qs, err := e.Queries(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no queries queued before retrain")
	}
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatal(err)
	}
	qs, err = e.Queries(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 0 {
		t.Fatalf("retrain left %d stale queries", len(qs))
	}
	// A full held-back week of in-regime PV data is as stationary as this
	// stream gets: the drift detector must not have armed anything.
	if got := e.Counters().DriftRetrains; got != 0 {
		t.Fatalf("stationary stream armed %d drift retrains", got)
	}
}
