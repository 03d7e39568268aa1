package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"testing"
)

// TestStreamPointsBulkIngest drives the binary bulk path end to end: one
// persistent stream carrying interleaved batches for two series, verified
// against the JSON status endpoint afterwards.
func TestStreamPointsBulkIngest(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()
	createSeries(t, ts, "pv", 60)
	createSeries(t, ts, "sr", 60)

	c := NewClient(ts.URL, nil)
	st, err := c.StreamPoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wantPV, wantSR int
	for i := 0; i < 10; i++ {
		if err := st.Send("pv", []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		wantPV += 3
		if err := st.Send("sr", []float64{0.5}); err != nil {
			t.Fatal(err)
		}
		wantSR++
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != wantPV+wantSR || sum.Batches != 20 {
		t.Errorf("summary = %+v, want appended %d over 20 batches", sum, wantPV+wantSR)
	}
	for name, want := range map[string]int{"pv": wantPV, "sr": wantSR} {
		status, err := c.Status(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if status.Points != want {
			t.Errorf("%s: %d points, want %d", name, status.Points, want)
		}
	}
}

// TestStreamPointsUnknownSeries checks mid-stream failure: the server aborts
// on the bad batch and the close error carries the status and the partial
// summary of what committed first.
func TestStreamPointsUnknownSeries(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()
	createSeries(t, ts, "pv", 60)

	c := NewClient(ts.URL, nil)
	st, err := c.StreamPoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send("pv", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Sends may start failing as soon as the server aborts; the definitive
	// outcome comes from Close.
	_ = st.Send("ghost", []float64{3})
	sum, err := st.Close()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("close err = %v, want a 404 APIError", err)
	}
	if sum.Appended != 2 || sum.Batches != 1 {
		t.Errorf("partial summary = %+v, want the first committed batch reported", sum)
	}
}

// ingestFrame length-delimits one /v1/ingest payload.
func ingestFrame(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// boundPV binds stream 1 to "pv" and appends frames.
func boundPV(frames ...[]byte) []byte {
	b := ingestFrame([]byte{ingestOpBind, 0x01, 'p', 'v'})
	for _, f := range frames {
		b = append(b, f...)
	}
	return b
}

// lyingCountStream sends "pv" a points frame that claims 2^61+1 values but
// carries one: count×8 wraps to the payload's 8 bytes.
func lyingCountStream() []byte {
	points := binary.AppendUvarint([]byte{ingestOpPoints, 0x01}, 1<<61+1)
	return boundPV(ingestFrame(append(points, make([]byte, 8)...)))
}

// TestIngestRejectsMalformedFrames posts raw garbage shapes at the endpoint
// and expects 400s, never a hang or a 500, and nothing appended.
func TestIngestRejectsMalformedFrames(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()
	createSeries(t, ts, "pv", 60)

	cases := map[string][]byte{
		"oversized length": binary.AppendUvarint(nil, 1<<40),
		"zero length":      {0x00},
		"truncated body":   {0x10, 0x01},
		"unknown op":       ingestFrame([]byte{0x7F, 0x01}),
		"unbound stream":   ingestFrame(append([]byte{ingestOpPoints, 0x09, 0x01}, make([]byte, 8)...)),
		"count mismatch":   boundPV(ingestFrame([]byte{ingestOpPoints, 0x01, 0x05})),
		"empty bind name":  ingestFrame([]byte{ingestOpBind, 0x01}),
		"ragged payload":   boundPV(ingestFrame(append([]byte{ingestOpPoints, 0x01, 0x01}, make([]byte, 9)...))),
		"lying count":      lyingCountStream(),
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/ingest", ingestContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if st, err := NewClient(ts.URL, nil).Status(context.Background(), "pv"); err != nil || st.Points != 0 {
		t.Errorf("pv after the malformed streams: %+v, %v; want no points", st, err)
	}
}

// TestIngestEmptyStreamOK: opening and closing a stream without sending
// anything is a clean zero summary, mirroring an empty JSON batch being
// invalid but an empty session being fine.
func TestIngestEmptyStreamOK(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	st, err := c.StreamPoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := st.Close()
	if err != nil || sum.Appended != 0 || sum.Batches != 0 {
		t.Fatalf("empty stream: %+v, %v", sum, err)
	}
}
