package service

// Handler-level ingest benchmarks: points POSTs served straight through
// http.Handler.ServeHTTP (no TCP), isolating decode + series mutation +
// verdict cost (the engine's own share is bench/'s engine.self layer).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// benchServer builds a server with nSeries untrained hourly series and
// returns its handler plus a pre-marshaled points body of batch values.
func benchServer(b *testing.B, nSeries, batch int) (http.Handler, [][]byte, []string) {
	b.Helper()
	s := NewServer(slog.New(slog.NewTextHandler(io.Discard, nil)))
	h := s.Handler()
	start := time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC)
	names := make([]string, nSeries)
	bodies := make([][]byte, nSeries)
	pts := make([]Point, batch)
	for i := range pts {
		pts[i] = Point{Value: float64(i % 97)}
	}
	body, err := json.Marshal(PointsRequest{Points: pts})
	if err != nil {
		b.Fatal(err)
	}
	for i := range names {
		names[i] = fmt.Sprintf("kpi%03d", i)
		cr, _ := json.Marshal(CreateRequest{IntervalSeconds: 3600, Start: start})
		req := httptest.NewRequest(http.MethodPut, "/v1/series/"+names[i], bytes.NewReader(cr))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			b.Fatalf("create %s: %d %s", names[i], w.Code, w.Body.String())
		}
		bodies[i] = body
	}
	return h, bodies, names
}

// BenchmarkHandlePoints/serial-1series measures one client streaming batches
// into one series; parallel-64series measures 64 series ingesting from
// parallel clients (the multi-tenant contention shape).
func BenchmarkHandlePoints(b *testing.B) {
	const batch = 256
	b.Run("serial-1series", func(b *testing.B) {
		h, bodies, names := benchServer(b, 1, batch)
		url := "/v1/series/" + names[0] + "/points"
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[0]))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("points: %d %s", w.Code, w.Body.String())
			}
		}
		b.SetBytes(int64(batch))
	})
	b.Run("parallel-64series", func(b *testing.B) {
		h, bodies, names := benchServer(b, 64, batch)
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(next.Add(1)-1) % len(names)
			url := "/v1/series/" + names[i] + "/points"
			for pb.Next() {
				req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[i]))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("points: %d %s", w.Code, w.Body.String())
				}
			}
		})
		b.SetBytes(int64(batch))
	})
}
