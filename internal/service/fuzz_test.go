package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzHandlePoints throws arbitrary request bodies at the points endpoint and
// checks the handler's contract under garbage: it never panics, always answers
// JSON, only uses the documented status codes, keeps rejected batches atomic
// (the stored point count must not move on a non-2xx), and reports an accepted
// count consistent with the stored point count on a 2xx.
func FuzzHandlePoints(f *testing.F) {
	h, points := fuzzServer(f)

	f.Add([]byte(`{"points":[{"value":1},{"value":2}]}`))
	f.Add([]byte(`{"points":[{"timestamp":"2015-01-05T00:00:00Z","value":3}]}`))
	f.Add([]byte(`{"points":[{"timestamp":"1999-01-01T00:00:00Z","value":3}]}`))
	f.Add([]byte(`{"points":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(`{"points":[{"value":1e308},{"value":-1e308}]}`))
	f.Add([]byte(`{"points":null}`))
	f.Add([]byte(`{"points":[{"value":null}]}`))
	f.Add([]byte(`[{"value":1}]`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		before := points(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/series/pv/points", bytes.NewReader(raw)))
		switch rec.Code {
		case http.StatusOK:
			var pr PointsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				t.Fatalf("200 with unparseable body %q: %v", rec.Body, err)
			}
			if after := points(t); after != before+pr.Appended {
				t.Fatalf("appended=%d but stored points went %d -> %d", pr.Appended, before, after)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("%d without an error body: %q", rec.Code, rec.Body)
			}
			if after := points(t); after != before {
				t.Fatalf("rejected batch partially appended: %d -> %d", before, after)
			}
		default:
			t.Fatalf("undocumented status %d: %q", rec.Code, rec.Body)
		}
	})
}

// FuzzIngestStream throws arbitrary bodies at the bulk-ingest endpoint, with
// series "pv" created. The handler never panics and always answers JSON with
// a documented status; its summary counts exactly what was stored; a 200 has
// appended every value the frames carry; and a points frame whose count
// disagrees with its payload, reached with nothing before it that could fail,
// is a 400.
func FuzzIngestStream(f *testing.F) {
	h, points := fuzzServer(f)

	f.Add(lyingCountStream())
	f.Add(ingestFrame(append([]byte{ingestOpPoints, 0x09, 0x01}, make([]byte, 8)...)))               // unbound stream id
	f.Add(boundPV(ingestFrame(append([]byte{ingestOpPoints, 0x01, 0x02}, make([]byte, 16)...)))[:9]) // truncated
	f.Add(boundPV(ingestFrame(append([]byte{ingestOpPoints, 0x01, 0x02}, make([]byte, 16)...))))

	documented := map[int]bool{http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusUnprocessableEntity: true, http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		values, onlyPV, lie := ingestShape(body)
		before := points(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		var res IngestSummary // a failure's body carries the summary beside the error
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || !documented[rec.Code] {
			t.Fatalf("status %d, body %q (%v)", rec.Code, rec.Body, err)
		}
		if after := points(t); after-before != res.Appended {
			t.Fatalf("summary appended=%d but stored points went %d -> %d", res.Appended, before, after)
		}
		if rec.Code == http.StatusOK && res.Appended != values {
			t.Fatalf("200 appended %d, the frames carry %d values", res.Appended, values)
		}
		if lie && onlyPV && values <= 4096 && rec.Code != http.StatusBadRequest {
			t.Fatalf("a points frame whose count disagrees with its payload answered %d: %q", rec.Code, rec.Body)
		}
	})
}

// ingestShape decodes an ingest body independently of the handler, up to its
// first malformed frame: how many values the points frames carry, whether
// every one of them is for "pv", and whether the malformed frame is a points
// frame whose count disagrees with its payload.
func ingestShape(body []byte) (values int, onlyPV, lie bool) {
	names := map[uint64]string{}
	onlyPV = true
	for len(body) > 0 {
		n, k := binary.Uvarint(body)
		if k <= 0 || n == 0 || n > maxIngestFrame || uint64(len(body)-k) < n {
			return
		}
		payload := body[k : k+int(n)]
		body = body[k+int(n):]
		id, k := binary.Uvarint(payload[1:])
		rest := payload[1+max(k, 0):]
		name, bound := names[id]
		switch {
		case k <= 0:
			return
		case payload[0] == ingestOpBind && len(rest) > 0:
			names[id] = string(rest)
		case payload[0] != ingestOpPoints || !bound:
			return
		default:
			count, k := binary.Uvarint(rest)
			if k <= 0 {
				return
			}
			if carried := len(rest) - k; carried%8 != 0 || count != uint64(carried/8) {
				return values, onlyPV, true
			}
			values += int(count)
			onlyPV = onlyPV && name == "pv"
		}
	}
	return
}

// fuzzServer serves a fresh engine with series "pv" created, and reads pv's
// stored point count.
func fuzzServer(f *testing.F) (http.Handler, func(*testing.T) int) {
	h := NewServer(slog.New(slog.NewTextHandler(io.Discard, nil))).Handler()
	create, err := json.Marshal(CreateRequest{IntervalSeconds: 60, Start: testStart, Trees: 10})
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/series/pv", bytes.NewReader(create)))
	if rec.Code != http.StatusCreated {
		f.Fatalf("create series: %d %s", rec.Code, rec.Body)
	}
	return h, func(t *testing.T) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/series/pv", nil))
		var st Status
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			t.Fatalf("status: %d %s", rec.Code, rec.Body)
		}
		return st.Points
	}
}
