package engine

// AppendBulk semantics: prefix application with deferred validation errors
// (the ingest stream contract), striped all-or-nothing admission, per-series
// runs bounded by the WAL buffer, and summary accounting.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/tsdb"
)

func bulkEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestAppendBulkAppliesInOrder(t *testing.T) {
	e := newTestEngine(t)
	for _, name := range []string{"a", "b"} {
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
			t.Fatal(err)
		}
	}
	batches := []SeriesBatch{
		{Name: "a", Points: []Point{{Value: 1}, {Value: 2}}},
		{Name: "b", Points: []Point{{Value: 3}}},
		{Name: "a", Points: []Point{{Value: 4}}},
	}
	sum, _, err := e.AppendBulk(context.Background(), batches, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != 4 || sum.Batches != 3 {
		t.Fatalf("summary = %+v, want 4 points / 3 batches", sum)
	}
	st, err := e.Status(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 3 {
		t.Fatalf("series a has %d points, want 3 (duplicate-series batches must chain)", st.Points)
	}
}

func TestAppendBulkUnknownSeriesAppliesPrefix(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Create("a", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	batches := []SeriesBatch{
		{Name: "a", Points: []Point{{Value: 1}}},
		{Name: "ghost", Points: []Point{{Value: 2}}},
		{Name: "a", Points: []Point{{Value: 3}}},
	}
	sum, _, err := e.AppendBulk(context.Background(), batches, nil)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if sum.Appended != 1 || sum.Batches != 1 {
		t.Fatalf("summary = %+v, want exactly the prefix before the unknown series", sum)
	}
	st, _ := e.Status(context.Background(), "a")
	if st.Points != 1 {
		t.Fatalf("series a has %d points, want 1 (nothing after the failing batch)", st.Points)
	}
}

func TestAppendBulkShedsGroupWhole(t *testing.T) {
	e := bulkEngine(t, Config{IngestInflight: 3})
	if err := e.Create("a", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	batches := []SeriesBatch{
		{Name: "a", Points: []Point{{Value: 1}, {Value: 2}}},
		{Name: "a", Points: []Point{{Value: 3}, {Value: 4}}},
	}
	sum, _, err := e.AppendBulk(context.Background(), batches, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if sum.Appended != 0 {
		t.Fatalf("shed group committed %d points, want 0 (admission is all-or-nothing)", sum.Appended)
	}
	st, _ := e.Status(context.Background(), "a")
	if st.Points != 0 {
		t.Fatalf("series a has %d points after shed, want 0", st.Points)
	}
	// The reservation must be fully returned: a fitting group now succeeds.
	if _, _, err := e.AppendBulk(context.Background(), batches[:1], nil); err != nil {
		t.Fatalf("append after shed: %v (leaked admission budget?)", err)
	}
}

// TestAppendBulkTimestampedBatchAppliesPrefix: bulk points take the next
// slots, so a timestamp — even the right one — fails its batch up front,
// with the same prefix contract as an empty or unknown batch.
func TestAppendBulkTimestampedBatchAppliesPrefix(t *testing.T) {
	e := newTestEngine(t)
	for _, name := range []string{"a", "b"} {
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
			t.Fatal(err)
		}
	}
	batches := []SeriesBatch{
		{Name: "a", Points: []Point{{Value: 1}, {Value: 2}}},
		{Name: "b", Points: []Point{{Value: 3}}},
		{Name: "b", Points: []Point{{Value: 4}, {Timestamp: testStart.Add(2 * time.Minute), Value: 5}}}, // b's slot 2
		{Name: "a", Points: []Point{{Value: 6}}},
	}
	sum, _, err := e.AppendBulk(context.Background(), batches, nil)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
	if sum.Appended != 3 || sum.Batches != 2 {
		t.Fatalf("summary = %+v, want exactly batches 0-1", sum)
	}
	for name, want := range map[string]int{"a": 2, "b": 1} {
		if st, _ := e.Status(context.Background(), name); st.Points != want {
			t.Fatalf("series %s has %d points, want %d", name, st.Points, want)
		}
	}
}

// TestAppendBulkRunsStayUnderWALBuffer: a series' batches in one group merge
// into one WAL record, but never into one past walBufferPoints, which the
// store would refuse as saturated — the batch that would overflow the run
// starts the next round. (The default admission budget stops such a group
// per shard first; an operator may lift it.)
func TestAppendBulkRunsStayUnderWALBuffer(t *testing.T) {
	store := &flakyStore{}
	e := bulkEngine(t, Config{IngestInflight: math.MaxInt, Store: store})
	if err := e.Create("a", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	batch := func(n int) SeriesBatch { return SeriesBatch{Name: "a", Points: make([]Point, n)} }
	for _, tc := range []struct {
		batches []SeriesBatch
		records int
	}{
		{[]SeriesBatch{batch(100), batch(200), batch(300)}, 1},
		{[]SeriesBatch{batch(walBufferPoints/2 + 1), batch(walBufferPoints/2 + 1), batch(walBufferPoints/2 + 1)}, 3},
	} {
		before := store.appends
		sum, _, err := e.AppendBulk(context.Background(), tc.batches, nil)
		if err != nil || sum.Batches != len(tc.batches) {
			t.Fatalf("summary %+v, err %v", sum, err)
		}
		if got := store.appends - before; got != tc.records {
			t.Fatalf("%d batches became %d WAL records, want %d", len(tc.batches), got, tc.records)
		}
	}
	if c := e.Counters(); c.WALLostPoints != 0 || c.DegradedEntered != 0 {
		t.Fatalf("lost %d points, degraded %d times: a run outgrew the WAL buffer", c.WALLostPoints, c.DegradedEntered)
	}
}

// bulkFleetSeries is the stream_trained workload's trained fleet.
const bulkFleetSeries = 16

// bulkFeed drives a fleet of trained series with flush groups shaped like the
// ingest handler's: frames round-robin over the series, aliasing one arena.
type bulkFeed struct {
	names   []string
	futures [][]float64
	next    []int
	turn    int
	arena   []Point
	group   []SeriesBatch
}

// newBulkFeed trains bulkFleetSeries series on e, kpigen PV, SR and SRT
// round-robin.
func newBulkFeed(t testing.TB, e *Engine) *bulkFeed {
	t.Helper()
	f := &bulkFeed{next: make([]int, bulkFleetSeries)}
	profiles := kpigen.Profiles(kpigen.Small)
	for i := range bulkFleetSeries {
		name := fmt.Sprintf("s%02d", i)
		future, _ := trainTypedSeries(t, e, name, profiles[i%len(profiles)], 9, 1, SeriesConfig{})
		f.names = append(f.names, name)
		f.futures = append(f.futures, future)
	}
	return f
}

// fill returns the next group of frames × framePts points, reusing the
// feed's arena and batch slice.
func (f *bulkFeed) fill(frames, framePts int) []SeriesBatch {
	if cap(f.arena) < frames*framePts {
		f.arena = make([]Point, frames*framePts)
	}
	f.group = f.group[:0]
	for k := range frames {
		s := f.turn % len(f.names)
		f.turn++
		fr := f.arena[k*framePts : (k+1)*framePts]
		for j := range fr {
			fr[j].Value = f.futures[s][f.next[s]%len(f.futures[s])]
			f.next[s]++
		}
		f.group = append(f.group, SeriesBatch{Name: f.names[s], Points: fr})
	}
	return f.group
}

// BenchmarkAppendBulk is the stream_trained workload in process, on a durable
// tsdb store in a temp dir. stream: 16 trained series, flush groups of 64
// frames of 64 points round-robin over them. backfill: 32 untrained series,
// groups of 64 frames of 256 points round-robin, where the commit waits are
// most of the cost. ns/pt is the wall time per point; with the runs applied
// across cores it falls below one core's scoring cost. `make bench-smoke`
// runs both once.
func BenchmarkAppendBulk(b *testing.B) {
	open := func(b *testing.B) *Engine {
		store, err := tsdb.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		e := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Store: store})
		b.Cleanup(func() { e.Close(); store.Close() })
		return e
	}
	run := func(b *testing.B, e *Engine, fill func() []SeriesBatch) {
		ctx := context.Background()
		var vbuf []Verdict
		points := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			group := fill()
			sum, buf, err := e.AppendBulk(ctx, group, vbuf)
			if err != nil || sum.Batches != len(group) {
				b.Fatalf("group %d: %+v, %v", i, sum, err)
			}
			vbuf = buf
			points += sum.Appended
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/pt")
	}
	b.Run("stream", func(b *testing.B) {
		e := open(b)
		feed := newBulkFeed(b, e)
		run(b, e, func() []SeriesBatch { return feed.fill(64, 64) })
	})
	b.Run("backfill", func(b *testing.B) {
		const series, frames, framePts = 32, 64, 256
		e := open(b)
		arena := make([]Point, frames*framePts)
		for i := range arena {
			arena[i].Value = float64(i % 97)
		}
		group := make([]SeriesBatch, frames)
		for s := range series {
			if err := e.Create(fmt.Sprintf("b%02d", s), SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
				b.Fatal(err)
			}
		}
		for k := range group {
			group[k] = SeriesBatch{Name: fmt.Sprintf("b%02d", k%series), Points: arena[k*framePts : (k+1)*framePts]}
		}
		run(b, e, func() []SeriesBatch { return group })
	})
}

// TestAppendBulkOpposedGroupsNoDeadlock: a bulk worker holds every run it
// stages, lock and all, until it settles them, so two ingest streams sending
// groups over the same series in opposite orders would deadlock if a worker
// ever blocked on a lock while holding another. One-point appends, labels
// and manual trains run on the same series throughout. A hang panics with
// every goroutine's stack.
func TestAppendBulkOpposedGroupsNoDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	store, err := tsdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := bulkEngine(t, Config{Store: store})
	t.Cleanup(func() { store.Close() })
	const series, groups = 8, 200
	names := make([]string, series)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i)
	}
	// Two of the series are trained, so Train runs its full snapshot → fit →
	// swap path on them.
	for _, name := range names[:2] {
		trainTypedSeries(t, e, name, kpigen.PV(kpigen.Small), 9, 1, SeriesConfig{})
	}
	ctx := context.Background()
	for _, name := range names[2:] {
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 3600, Start: testStart}); err != nil {
			t.Fatal(err)
		}
		// The label worker labels [0, 1) from its first call on, so every
		// series holds that point before the workers start.
		if _, err := e.Append(ctx, name, []Point{{Value: 1}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	stream := func(order func(int) int) error {
		var vbuf []Verdict
		group := make([]SeriesBatch, 2*series)
		for g := range groups {
			for k := range group {
				// Frames of 1 to 8 points; a series appears twice per group.
				group[k] = SeriesBatch{Name: names[order(k%series)], Points: make([]Point, 1+(g+k)%8)}
			}
			sum, buf, err := e.AppendBulk(ctx, group, vbuf)
			if err != nil || sum.Batches != len(group) {
				return fmt.Errorf("group %d: %+v, %v", g, sum, err)
			}
			vbuf = buf
		}
		return nil
	}
	work := []func() error{
		func() error { return stream(func(i int) int { return i }) },
		func() error { return stream(func(i int) int { return series - 1 - i }) },
		func() error {
			for i := range groups {
				if _, err := e.Append(ctx, names[i%series], []Point{{Value: 1}}, nil); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			for i := range groups {
				if _, err := e.Label(ctx, names[(i*3)%series], []Window{{Start: 0, End: 1, Anomalous: i%2 == 0}}); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			for i := range 4 {
				if _, err := e.Train(ctx, names[i%2]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	errs := make(chan error, len(work))
	for _, w := range work {
		go func() { errs <- w() }()
	}
	timeout := time.After(2 * time.Minute)
	for range work {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			panic("AppendBulk deadlocked against an opposed group, Append, Label or Train")
		}
	}
}

// panicStore hands every record on to the store it wraps and then, for the
// points of the series named victim, panics: the write lands and its
// accounting balances, but the append that issued it never sees Submit
// return — a panic outside stepColumn's sandbox, mid-stage.
type panicStore struct {
	Store
	victim atomic.Pointer[string]
}

func (s *panicStore) Submit(ctx context.Context, rec tsdb.Record, done func(error)) error {
	err := s.Store.Submit(ctx, rec, done)
	if v := s.victim.Load(); v != nil && rec.Meta == nil && rec.Name == *v {
		panic("store panicked on " + rec.Name)
	}
	return err
}

// TestAppendBulkPanicReachesCaller pins the bulk panic contract: a panic on
// any worker — the caller's or a spawned one — reaches AppendBulk's caller,
// and every run a worker held staged is settled and unlocked first, so
// every other series of the group takes a further Append. The series the
// panic struck mid-stage stays as Append would leave it: locked. The victim
// takes every position of the group, at GOMAXPROCS 1 and 4.
func TestAppendBulkPanicReachesCaller(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			store := &panicStore{Store: &stallStore{}}
			e := bulkEngine(t, Config{Store: store})
			const series = 7
			names := make([]string, series)
			for i := range names {
				names[i] = fmt.Sprintf("p%d", i)
			}
			create := func(name string) {
				if err := e.Create(name, SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range names {
				create(name)
			}
			ctx := context.Background()
			// Four calls per position, so at GOMAXPROCS 4 the victim's run
			// lands on spawned workers as well as on the caller's.
			for call := range 4 * (series + 1) {
				pos := call % (series + 1)
				victim := fmt.Sprintf("victim%d", call)
				create(victim)
				store.victim.Store(&victim)
				group := make([]SeriesBatch, 0, series+1)
				for _, name := range names {
					if len(group) == pos {
						group = append(group, SeriesBatch{Name: victim, Points: make([]Point, 3)})
					}
					group = append(group, SeriesBatch{Name: name, Points: make([]Point, 1+len(group)%4)})
				}
				if pos == series {
					group = append(group, SeriesBatch{Name: victim, Points: make([]Point, 3)})
				}
				got := func() (r any) {
					defer func() { r = recover() }()
					e.AppendBulk(ctx, group, nil)
					return nil
				}()
				if want := "store panicked on " + victim; got != want {
					t.Fatalf("victim at %d: AppendBulk's caller recovered %v, want %q", pos, got, want)
				}
				appended := make(chan error, 1)
				go func() {
					for _, name := range names {
						if _, err := e.Append(ctx, name, []Point{{Value: 1}}, nil); err != nil {
							appended <- err
							return
						}
					}
					appended <- nil
				}()
				select {
				case err := <-appended:
					if err != nil {
						t.Fatalf("victim at %d: append after the panic: %v", pos, err)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("victim at %d: a series of the group stayed locked after the panic", pos)
				}
			}
		})
	}
}

// TestAppendBulkReturnsOneRunsVerdicts: whichever workers claim a group's
// runs — the caller's own worker among them or not — AppendBulk hands back
// the verdicts of exactly one of those runs. Every series is trained, so
// every run scores a verdict per point, and each group gives its series runs
// of distinct lengths, so a result's length names its run and its indices
// must be that series' next slots. Two streams of groups over disjoint
// series, at GOMAXPROCS 4, keep more workers runnable than there are cores,
// so a worker is at times descheduled before it claims any run. vbuf is nil
// on every call, so an empty result cannot pass for a run's verdicts.
func TestAppendBulkReturnsOneRunsVerdicts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := bulkEngine(t, Config{})
	const streams, perStream, groups = 2, 4, 1500
	names := make([]string, streams*perStream)
	next := make([]int, len(names)) // each series' next slot
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		_, next[i] = trainTypedSeries(t, e, names[i], kpigen.PV(kpigen.Small), 9, 1, SeriesConfig{})
	}
	stream := func(own []string, next []int) error {
		ctx := context.Background()
		group := make([]SeriesBatch, len(own))
		for g := range groups {
			for k := range group {
				// Series k+g%n takes k+1 points: lengths 1..n, rotated.
				s := (k + g) % len(own)
				group[k] = SeriesBatch{Name: own[s], Points: make([]Point, k+1)}
			}
			_, verdicts, err := e.AppendBulk(ctx, group, nil)
			if err != nil {
				return fmt.Errorf("group %d: %v", g, err)
			}
			if len(verdicts) == 0 || len(verdicts) > len(group) {
				return fmt.Errorf("group %d: %d verdicts, want one run's (1 to %d)", g, len(verdicts), len(group))
			}
			s := (len(verdicts) - 1 + g) % len(own)
			for i, v := range verdicts {
				if v.Index != next[s]+i {
					return fmt.Errorf("group %d: verdict %d has index %d, want %s's slot %d", g, i, v.Index, own[s], next[s]+i)
				}
			}
			for k := range group {
				next[(k+g)%len(own)] += k + 1
			}
		}
		return nil
	}
	errs := make(chan error, streams)
	for s := range streams {
		lo, hi := s*perStream, (s+1)*perStream
		go func() { errs <- stream(names[lo:hi], next[lo:hi]) }()
	}
	for range streams {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
