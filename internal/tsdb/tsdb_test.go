package tsdb

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

var ctx = context.Background()

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

var meta = Meta{
	Name:            "pv",
	Start:           time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC),
	IntervalSeconds: 60,
	Recall:          0.66,
	Precision:       0.66,
	Trees:           60,
}

func TestRoundTrip(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 1, End: 3, Anomalous: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.write(ctx, Record{Name: "pv", Start: 2, End: 3, Anomalous: false}); err != nil { // partial undo
		t.Fatal(err)
	}
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != meta {
		t.Errorf("meta = %+v", got.Meta)
	}
	wantVals := []float64{1, 2, 3, 4, 5}
	wantLabels := []bool{false, true, false, false, false}
	for i := range wantVals {
		if got.Values[i] != wantVals[i] || got.Labels[i] != wantLabels[i] {
			t.Fatalf("replay = %v / %v", got.Values, got.Labels)
		}
	}
}

// A name has one identity, its dictionary binding: once tombstoned it stays
// gone — from this store and from a reopened one — whatever files lie
// beside the shard directories.
func TestTombstonedNameStaysGoneBesideStrayFile(t *testing.T) {
	retire := map[string]func(*Store, string) error{
		"Quarantine": func(s *Store, name string) error { _, err := s.Quarantine(name); return err },
	}
	for how, fn := range retire {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.CreateSeries(meta); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendPoints(ctx, "pv", []float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			stray := `{"kind":"meta","meta":{"name":"pv","interval_seconds":60}}
{"kind":"points","values":[7,8]}
`
			if err := os.WriteFile(filepath.Join(dir, "pv.wal"), []byte(stray), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fn(s, "pv"); err != nil {
				t.Fatal(err)
			}
			check := func(stage string, s *Store) {
				t.Helper()
				if names, err := s.List(); err != nil || len(names) != 0 {
					t.Errorf("%s: List = %v, %v; want empty", stage, names, err)
				}
				if got, err := s.Load("pv"); !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("%s: Load = %+v, %v; want fs.ErrNotExist", stage, got, err)
				}
			}
			check("live", s)
			s.Close()
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			check("reopened", s2)
		})
	}
}

func TestImport(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	values := []float64{10.5, 11, 80, 81, 12, 90}
	labels := []bool{false, false, true, true, false, true}
	if err := s.Import(ctx, meta, values, labels); err != nil {
		t.Fatal(err)
	}
	// The whole series is one frame: a crash replays all of it or none.
	sh := s.shardFor("pv")
	sh.mu.Lock()
	extents := len(sh.byName["pv"].extents)
	sh.mu.Unlock()
	if extents != 1 {
		t.Errorf("import spans %d frames, want 1", extents)
	}
	if err := s.Import(ctx, meta, []float64{1}, nil); err == nil {
		t.Error("import over an existing series accepted")
	}
	other := meta
	other.Name = "short"
	if err := s.Import(ctx, other, []float64{1}, []bool{true, true}); err == nil {
		t.Error("more labels than points accepted")
	}
	if err := s.AppendPoints(ctx, "pv", []float64{13}); err != nil {
		t.Fatal(err)
	}
	want := Loaded{Meta: meta, Values: append(values, 13), Labels: append(labels, false)}
	check := func(stage string, s *Store) {
		t.Helper()
		got, err := s.Load("pv")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: Load =\n  %+v\nwant\n  %+v", stage, *got, want)
		}
	}
	check("live", s)
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check("reopened", s2)
}

func TestInvalidNames(t *testing.T) {
	s := openTemp(t)
	for _, name := range []string{"", "a/b", `a\b`, ".."} {
		if err := s.AppendPoints(ctx, name, []float64{1}); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

func TestListAndRemove(t *testing.T) {
	s := openTemp(t)
	for _, n := range []string{"b", "a"} {
		m := meta
		m.Name = n
		if err := s.CreateSeries(m); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("List = %v", names)
	}
	if _, err := s.Quarantine("a"); err != nil {
		t.Fatal(err)
	}
	names, _ = s.List()
	if len(names) != 1 || names[0] != "b" {
		t.Errorf("after Quarantine, List = %v", names)
	}
	if _, err := s.Quarantine("a"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("quarantining a retired series: err = %v, want fs.ErrNotExist", err)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.CreateSeries(meta)
	s.AppendPoints(ctx, "pv", []float64{1})
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AppendPoints(ctx, "pv", []float64{2}); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 2 || got.Values[1] != 2 {
		t.Errorf("reopened replay = %v", got.Values)
	}
}

func TestAppendLabelValidation(t *testing.T) {
	s := openTemp(t)
	if err := s.write(ctx, Record{Name: "pv", Start: 3, End: 3, Anomalous: true}); err == nil {
		t.Error("empty range accepted")
	}
	if err := s.write(ctx, Record{Name: "pv", Start: -1, End: 2, Anomalous: true}); err == nil {
		t.Error("negative start accepted")
	}
}

func TestAppendPointsEmptyNoop(t *testing.T) {
	s := openTemp(t)
	if err := s.AppendPoints(ctx, "pv", nil); err != nil {
		t.Fatal(err)
	}
	if names, _ := s.List(); len(names) != 0 {
		t.Errorf("empty append created a log: %v", names)
	}
}

func TestCreateDuplicateRejected(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSeries(meta); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestAppendContextCanceled(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// Cancellation abandons the wait, not the write: the call must return
	// promptly with either the context error or (if the commit won the
	// race) success — and the write may still be durable.
	err := s.AppendPoints(canceled, "pv", []float64{1})
	if err != nil && err != context.Canceled {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
}

// TestSubmitBoundedByContextWhenQueueFull wedges a shard's appender (a
// stand-in for a stalled disk), fills its queue, and checks the enqueue
// contract: an already-done ctx is a pure try, a live ctx waits for space
// only until it expires, a refused record never reaches done, and every
// accepted one commits exactly once, in Submit order, when the disk returns.
func TestSubmitBoundedByContextWhenQueueFull(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	wedged, release := make(chan struct{}), make(chan struct{})
	if err := s.Submit(ctx, Record{Name: "pv", Values: []float64{0}}, func(error) {
		close(wedged)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-wedged

	var committed sync.WaitGroup
	submit := func(ctx context.Context, v float64) error {
		committed.Add(1)
		err := s.Submit(ctx, Record{Name: "pv", Values: []float64{v}}, func(err error) {
			if err != nil {
				t.Errorf("point %v: commit failed: %v", v, err)
			}
			committed.Done()
		})
		if err != nil {
			committed.Done()
		}
		return err
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	accepted := 0
	for submit(done, float64(accepted+1)) == nil {
		accepted++
	}
	if accepted == 0 {
		t.Fatal("a done ctx refused a write although the queue had room")
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := submit(short, -1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit on a full queue: %v, want context.DeadlineExceeded", err)
	}

	close(release)
	committed.Wait()
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != accepted+1 {
		t.Fatalf("%d points in the log, want %d", len(got.Values), accepted+1)
	}
	for i, v := range got.Values {
		if v != float64(i) {
			t.Fatalf("point %d = %v: accepted writes committed out of Submit order", i, v)
		}
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.AppendPoints(ctx, "pv", []float64{1}); err == nil {
		t.Error("append after Close accepted")
	}
}
