package engine

// Allocation regression gates for the ingest hot path. The serving claim
// rests on Append staying allocation-free per point: feature rows, verdict
// buffers, WAL ops, and scoring scratch are all pooled or reused, so any
// new per-point allocation is a regression that should fail go test, not
// only show up in benchmarks.
//
// AllocsPerRun's result is the integer mean over many runs, so the rare
// amortized slice growth of the append-only series arrays (a handful of
// doublings across hundreds of runs) rounds to zero, while a real per-point
// allocation reads >= 1.

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/kpigen"
)

func TestAppendUntrainedZeroAllocs(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pts := []Point{{Value: 1}}
	var vbuf []Verdict
	// Warm-up establishes slice capacity and the admission fast path.
	for i := 0; i < 64; i++ {
		if _, err := e.Append(ctx, "pv", pts, vbuf); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := e.Append(ctx, "pv", pts, vbuf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untrained Append allocates %.1f objects per batch, want 0", allocs)
	}
}

func TestAppendTrainedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	e, rest, _ := trainableSeries(t, 9)
	ctx := context.Background()
	// The verdict buffer is recycled from the result like the service layer's
	// sync.Pool does; a fresh nil buffer per call would cost one allocation.
	vbuf := make([]Verdict, 0, 4)
	pts := make([]Point, 1)
	next := 0
	step := func() {
		pts[0].Value = rest[next%len(rest)]
		res, err := e.Append(ctx, "pv", pts, vbuf)
		if err != nil {
			t.Fatal(err)
		}
		vbuf = res.Verdicts
		next++
	}
	// Warm-up grows the monitor's batch scratch and the alarm ring.
	for i := 0; i < 32; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(300, step)
	if allocs != 0 {
		t.Fatalf("trained Append allocates %.1f objects per batch, want 0", allocs)
	}
}

// trainableTypedSeries mirrors trainableSeries but creates the series with
// the given predictor config and labels it with typed windows (derived from
// kpigen's injection schedule), so training fits the anomaly-type head too.
func trainableTypedSeries(t *testing.T, weeks int, scfg SeriesConfig) (*Engine, []float64, int) {
	t.Helper()
	e := newTestEngine(t)
	future, boot := trainTypedSeries(t, e, "pv", kpigen.PV(kpigen.Small), weeks, 1, scfg)
	return e, future, boot
}

// trainTypedSeries creates name on e as trainableTypedSeries does, from an
// hourly weeks-long generation of profile p: all but the last held weeks
// are appended, typed-labeled and trained on. It returns the held-back
// values and the index of the first.
func trainTypedSeries(t testing.TB, e *Engine, name string, p kpigen.Profile, weeks, held int, scfg SeriesConfig) ([]float64, int) {
	t.Helper()
	p.Interval = time.Hour
	p.Weeks = weeks
	d := kpigen.Generate(p, 91)
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}
	scfg.IntervalSeconds = 3600
	scfg.Start = testStart
	scfg.Trees = 10
	if err := e.Create(name, scfg); err != nil {
		t.Fatal(err)
	}
	boot := (weeks - held) * ppw
	pts := make([]Point, boot)
	for i := range pts {
		pts[i] = Point{Value: d.Series.Values[i]}
	}
	if _, err := e.Append(context.Background(), name, pts, nil); err != nil {
		t.Fatal(err)
	}
	var windows []Window
	for _, a := range d.Anomalies {
		if a.Window.End <= boot {
			windows = append(windows, Window{
				Start:     a.Window.Start,
				End:       a.Window.End,
				Anomalous: true,
				Type:      core.AnomalyClass(kpigen.ClassOf(a.Type)).Wire(),
			})
		}
	}
	if _, err := e.Label(context.Background(), name, windows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(context.Background(), name); err != nil {
		t.Fatal(err)
	}
	return d.Series.Values[boot:], boot
}

// TestAppendTrainedEVTZeroAllocs extends the trained-path allocation gate to
// the EVT predictor: the per-point POT threshold update (ObserveScore +
// Predict) is pure arithmetic and must not cost an allocation.
func TestAppendTrainedEVTZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	e, rest, _ := trainableTypedSeries(t, 9, SeriesConfig{CThldPredictor: "evt"})
	ctx := context.Background()
	vbuf := make([]Verdict, 0, 4)
	pts := make([]Point, 1)
	next := 0
	step := func() {
		pts[0].Value = rest[next%len(rest)]
		res, err := e.Append(ctx, "pv", pts, vbuf)
		if err != nil {
			t.Fatal(err)
		}
		vbuf = res.Verdicts
		next++
	}
	for i := 0; i < 32; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(300, step)
	if allocs != 0 {
		t.Fatalf("trained EVT Append allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestAppendTrainedTypedZeroAllocs extends the gate to the anomaly-type head:
// classifying an anomalous point and stamping Verdict.Type / Alarm.Type
// (constant wire strings) must not allocate either.
func TestAppendTrainedTypedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	e, rest, _ := trainableTypedSeries(t, 9, SeriesConfig{})
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if !st.TypedModel {
		t.Fatal("typed windows did not produce a type head")
	}
	ctx := context.Background()
	vbuf := make([]Verdict, 0, 4)
	pts := make([]Point, 1)
	next := 0
	step := func() {
		pts[0].Value = rest[next%len(rest)]
		res, err := e.Append(ctx, "pv", pts, vbuf)
		if err != nil {
			t.Fatal(err)
		}
		vbuf = res.Verdicts
		next++
	}
	for i := 0; i < 32; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(300, step)
	if allocs != 0 {
		t.Fatalf("trained typed Append allocates %.1f objects per batch, want 0", allocs)
	}
}

// bulkAllocProcs is the GOMAXPROCS TestAppendBulkGroupAllocs measures at, so
// its bound does not depend on the machine. maxBulkGroupAllocs is that
// bound: one closure per worker beside the caller. The run table, the merge
// buffer and every worker's verdict buffer are pooled, so nothing scales
// with the frames of a group.
const (
	bulkAllocProcs     = 4
	maxBulkGroupAllocs = bulkAllocProcs - 1
)

// TestAppendBulkGroupAllocs: a flush group of 16 or of 64 frames over 16
// trained series allocates at most maxBulkGroupAllocs objects, and the same
// number either way.
func TestAppendBulkGroupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 16 models")
	}
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	e := newTestEngine(t)
	feed := newBulkFeed(t, e)
	ctx := context.Background()
	var vbuf []Verdict
	allocs := make(map[int]uint64)
	for _, frames := range []int{16, 64} {
		allocs[frames] = groupAllocs(func() {
			sum, buf, err := e.AppendBulk(ctx, feed.fill(frames, 8), vbuf)
			if err != nil || sum.Appended != frames*8 {
				t.Fatalf("%d-frame group: %+v, %v", frames, sum, err)
			}
			vbuf = buf
		})
	}
	t.Logf("objects allocated per group: %d at 16 frames, %d at 64", allocs[16], allocs[64])
	if allocs[16] > maxBulkGroupAllocs || allocs[64] != allocs[16] {
		t.Fatalf("a 16-frame group allocates %d objects and a 64-frame group %d, want the same and at most %d",
			allocs[16], allocs[64], maxBulkGroupAllocs)
	}
}

// groupAllocs calls group at bulkAllocProcs procs and returns the fewest heap
// allocations of one call. An allocation per frame or per run would show in
// every call; the minimum leaves out what only some calls pay — an
// append-only series array doubling, a goroutine descriptor the scheduler
// could not reuse.
func groupAllocs(group func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bulkAllocProcs))
	for i := 0; i < 16; i++ {
		group() // fill the pools
	}
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 16; i++ {
		runtime.ReadMemStats(&before)
		group()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
