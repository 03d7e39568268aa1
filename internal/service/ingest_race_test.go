package service

// Streaming ingest racing concurrent retrains. The engine's snapshot → fit →
// replay+swap protocol promises exactly one verdict per appended point even
// when the monitor is swapped mid-stream; this drives that seam over the
// binary /v1/ingest path while synchronous retrains fire from another
// goroutine. Run under -race via make engine-race, where the interleaving
// between the ingest flush groups and the swap is varied across -count runs.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"opprentice/internal/kpigen"
)

func TestIngestStreamConcurrentRetrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	ts := newTestServer(t)
	createSeries(t, ts, "pv", 3600)

	// Bootstrap 9 labeled weeks and train once, as in TestFullLifecycle.
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	d := kpigen.Generate(p, 52)
	c := NewClient(ts.URL, nil)
	boot, err := c.StreamPoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Send("pv", d.Series.Values); err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	var windows []LabelWindow
	for _, win := range d.Labels.Windows() {
		windows = append(windows, LabelWindow{Start: win.Start, End: win.End, Anomalous: true})
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/labels", LabelsRequest{Windows: windows}); resp.StatusCode != http.StatusOK {
		t.Fatalf("labels: %d %s", resp.StatusCode, body)
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/train", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %d %s", resp.StatusCode, body)
	}

	// Stream a continuation in small batches while retrains fire
	// concurrently: every batch lands either on the old monitor, the new
	// one, or in the mid-train replay window — and must be verdicted
	// exactly once either way.
	cont := kpigen.Generate(p, 53).Series.Values[:240]
	retrains := make(chan error, 1)
	go func() {
		defer close(retrains)
		for i := 0; i < 3; i++ {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/series/pv/train", nil)
			if err != nil {
				retrains <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				retrains <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				retrains <- &APIError{StatusCode: resp.StatusCode, Message: "concurrent retrain failed"}
				return
			}
		}
	}()

	st, err := c.StreamPoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sent, batches := 0, 0
	for lo := 0; lo < len(cont); lo += 8 {
		hi := lo + 8
		if hi > len(cont) {
			hi = len(cont)
		}
		if err := st.Send("pv", cont[lo:hi]); err != nil {
			t.Fatal(err)
		}
		sent += hi - lo
		batches++
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-retrains; err != nil {
		t.Fatal(err)
	}
	if sum.Appended != sent || sum.Batches != batches {
		t.Fatalf("summary = %+v, want %d points / %d batches: a mid-swap batch was lost or double-applied", sum, sent, batches)
	}
	status, err := c.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if want := d.Series.Len() + sent; status.Points != want {
		t.Fatalf("series has %d points, want %d", status.Points, want)
	}
	if !status.Trained {
		t.Fatal("series lost its trained monitor across concurrent retrains")
	}
}

// TestIngestStreamsConcurrent: two /v1/ingest streams and a one-point POSTer
// feed the same three trained series at once. Each stream's flush groups
// apply per series across cores, so every series takes runs from both
// streams and single POSTs interleaved. Each sender's points must still land
// in the order sent. Every POST's verdict must name the slot its value landed
// in. The series' lengths and points_ingested must add up to the points
// sent.
func TestIngestStreamsConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	srv := NewServer(discardLogger())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	names := []string{"a", "b", "c"} // Inspect's order
	boot := make([]int, len(names))
	for s, name := range names {
		createSeries(t, ts, name, 3600)
		boot[s] = trainOn(t, ts, name, int64(60+s)).Series.Len()
	}

	// Sender k's j-th point to a series has the value k·1e6 + j, so the
	// series' history says who sent each point and in which order.
	const streams, streamFrames, posts = 2, 60, 48
	value := func(k, j int) float64 { return float64(k)*1e6 + float64(j) }
	var sent [streams + 1][]int // per sender, points per series
	for k := range sent {
		sent[k] = make([]int, len(names))
	}
	type posted struct {
		s, index int
		value    float64
	}
	var verdicts []posted
	errs := make(chan error, streams+1)
	var wg sync.WaitGroup
	for k := 0; k < streams; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k)))
			st, err := NewClient(ts.URL, nil).StreamPoints(ctx)
			if err != nil {
				errs <- err
				return
			}
			frames, points := 0, 0
			for range streamFrames {
				s := rng.Intn(len(names))
				vals := make([]float64, 1+rng.Intn(32))
				for j := range vals {
					vals[j] = value(k, sent[k][s])
					sent[k][s]++
				}
				if err := st.Send(names[s], vals); err != nil {
					errs <- err
					return
				}
				frames, points = frames+1, points+len(vals)
			}
			if sum, err := st.Close(); err != nil || sum.Batches != frames || sum.Appended != points {
				errs <- fmt.Errorf("stream %d: %+v, %v, want %d points in %d batches", k, sum, err, points, frames)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := NewClient(ts.URL, nil)
		for i := range posts {
			s := i % len(names)
			v := value(streams, sent[streams][s])
			sent[streams][s]++
			resp, err := c.Append(ctx, names[s], []Point{{Value: v}})
			if err != nil || len(resp.Verdicts) != 1 {
				errs <- fmt.Errorf("post %d: %+v, %v", i, resp, err)
				return
			}
			verdicts = append(verdicts, posted{s, resp.Verdicts[0].Index, v})
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := 0
	for s, in := range srv.Engine().Inspect(1<<20, 0) {
		if in.Name != names[s] {
			t.Fatalf("series %d is %s, want %s", s, in.Name, names[s])
		}
		history := in.Recent
		want := boot[s]
		for k := range sent {
			want += sent[k][s]
		}
		total += want
		if len(history) != want {
			t.Fatalf("%s has %d points, want %d", in.Name, len(history), want)
		}
		var seen [streams + 1]int
		for i, v := range history[boot[s]:] {
			k, j := int(v/1e6), int(v)%1e6
			if k > streams || j != seen[k] {
				t.Fatalf("%s slot %d holds sender %d's point %d, want its point %d", in.Name, boot[s]+i, k, j, seen[k])
			}
			seen[k]++
		}
		for _, p := range verdicts {
			if p.s == s && history[p.index] != p.value {
				t.Fatalf("%s: a POST's verdict names slot %d, which holds %v, not the posted %v", in.Name, p.index, history[p.index], p.value)
			}
		}
	}
	if got := metricValue(t, ts, "opprenticed_points_ingested_total"); got != float64(total) {
		t.Fatalf("points_ingested = %v, want %d", got, total)
	}
}
