package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/service"
)

// phaseInfo is the provenance of one phase of a run.
type phaseInfo struct {
	Name    string  `json:"name"`
	Ops     int     `json:"ops"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // timings behind the phase's medians and percentiles
	Beyond  int     `json:"beyond_p99,omitempty"`
	WallS   float64 `json:"wall_s"`
}

// e2eResult is what one lifecycle against the daemon measured.
type e2eResult struct {
	metrics map[string]float64 // end-to-end metrics by name
	outside map[string]float64 // proc.* and daemon.* readings taken around the phases
	// connSeconds is the time the load connection spent per operation in
	// each phase, the base of the traced run's gap ratios.
	connSeconds map[string]float64
	phases      []phaseInfo
	// samples are the readings behind each metric that is an estimate over
	// rounds, slices, series or restarts, in the metric's unit.
	samples map[string][]float64
}

// record keeps the readings behind a metric and sets the metric to their
// median. (On this sandbox the best quartile or the best reading of a run
// is no steadier from run to run than the median: what varies is the speed
// of the machine over a whole run, not single rounds.)
func (r *e2eResult) record(name string, readings []float64) float64 {
	r.samples[name] = readings
	r.metrics[name] = median(readings)
	return r.metrics[name]
}

// fleet is the client side of one run: the daemon, the load connection and
// what each series has been sent so far.
type fleet struct {
	sh    shape
	d     *daemon
	t     *tally
	hc    *http.Client
	cl    *service.Client
	in    []seriesInput // trained series first, then the fresh ones
	cur   []liveCursor
	total []int        // points each series holds
	logs  []*seriesLog // non-nil for the sampled series
	sent  int          // points sent since the daemon last started

	res      *e2eResult
	empty    procSample        // the daemon before any series
	use      map[string]*usage // by phase
	lastProc procSample        // at the last mark or lap
	lastWAL  float64
}

func newFleet(sh shape, seed int64, d *daemon, t *tally) *fleet {
	f := &fleet{sh: sh, d: d, t: t, use: make(map[string]*usage)}
	f.res = &e2eResult{
		metrics:     make(map[string]float64),
		outside:     make(map[string]float64),
		connSeconds: make(map[string]float64),
		samples:     make(map[string][]float64),
	}
	// Its own transport pins the client to one connection.
	f.hc = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}
	f.cl = service.NewClient(d.base(), f.hc)
	n := sh.trained + sh.fresh
	f.in = make([]seriesInput, n)
	f.cur = make([]liveCursor, n)
	f.total = make([]int, n)
	f.logs = make([]*seriesLog, n)
	for i := range f.in {
		f.in[i] = genSeries(seed, i)
		f.cur[i] = liveCursor{vals: f.in[i].live}
		if i < min(oracleSeries, sh.trained) {
			f.logs[i] = &seriesLog{in: f.in[i]}
		}
	}
	return f
}

// stream opens one ingest stream, lets fill send frames through it, closes
// it and checks the summary against what was sent.
func (f *fleet) stream(ctx context.Context, fill func(send func(i int, vals []float64))) {
	st, err := f.cl.StreamPoints(ctx)
	if !f.t.check(err, "open ingest stream") {
		return
	}
	sent := 0
	var sendErr error
	fill(func(i int, vals []float64) {
		if sendErr != nil {
			return
		}
		if l := f.logs[i]; l != nil {
			l.points(vals, nil)
		}
		sendErr = st.Send(f.in[i].name, vals)
		f.total[i] += len(vals)
		sent += len(vals)
	})
	sum, err := st.Close()
	if err == nil {
		err = sendErr
	}
	if err == nil && sum.Appended != sent {
		err = fmt.Errorf("appended %d of %d points", sum.Appended, sent)
	}
	f.t.check(err, "ingest stream")
}

// setUp creates, backfills, labels and cold-trains series i, returning the
// wall time of the whole and of the train call, in seconds.
func (f *fleet) setUp(ctx context.Context, i int) (whole, train float64) {
	in := f.in[i]
	t0 := time.Now()
	f.create(ctx, i)
	f.stream(ctx, func(send func(int, []float64)) { send(i, in.history) })
	f.label(ctx, i, in.labels)
	train = f.train(ctx, i)
	return time.Since(t0).Seconds(), train
}

func (f *fleet) create(ctx context.Context, i int) {
	f.t.check(f.cl.Create(ctx, f.in[i].name, f.in[i].createRequest()), "create "+f.in[i].name)
}

func (f *fleet) label(ctx context.Context, i int, ws []service.LabelWindow) {
	if len(ws) == 0 {
		return
	}
	if l := f.logs[i]; l != nil {
		l.ops = append(l.ops, seriesOp{kind: opLabel, windows: ws})
	}
	f.t.check(f.cl.Label(ctx, f.in[i].name, ws), "label "+f.in[i].name)
}

// train posts a synchronous train and returns its wall time in seconds.
func (f *fleet) train(ctx context.Context, i int) float64 {
	t0 := time.Now()
	cthld, err := f.cl.Train(ctx, f.in[i].name)
	took := time.Since(t0).Seconds()
	f.t.check(err, "train "+f.in[i].name)
	if l := f.logs[i]; l != nil {
		l.ops = append(l.ops, seriesOp{kind: opTrain, cthld: cthld})
	}
	return took
}

// streamRound sends points live values in one stream of round-robin frames
// to the series in [lo, hi), and returns the round's wall time.
func (f *fleet) streamRound(ctx context.Context, lo, hi, points, frame int) time.Duration {
	t0 := time.Now()
	var scratch []float64
	f.stream(ctx, func(send func(int, []float64)) {
		for k := 0; k < points/frame; k++ {
			i := lo + k%(hi-lo)
			scratch = f.cur[i].next(frame, scratch)
			send(i, scratch)
		}
	})
	return time.Since(t0)
}

// scrape posts n one-point requests round-robin over the trained series,
// checks every answer, and returns each request's latency in microseconds.
func (f *fleet) scrape(ctx context.Context, n int) []float64 {
	lat := make([]float64, 0, n)
	var scratch []float64
	pt := make([]service.Point, 1)
	for k := 0; k < n; k++ {
		i := k % f.sh.trained
		scratch = f.cur[i].next(1, scratch)
		pt[0].Value = scratch[0]
		t0 := time.Now()
		resp, err := f.cl.Append(ctx, f.in[i].name, pt)
		took := time.Since(t0)
		f.total[i]++
		if err == nil {
			err = f.checkScrape(i, resp)
		}
		if f.t.check(err, "scrape "+f.in[i].name) {
			lat = append(lat, float64(took.Nanoseconds())/1e3)
		}
		if l := f.logs[i]; l != nil {
			l.points(scratch, resp.Verdicts)
		}
	}
	return lat
}

// checkScrape checks the parts of a one-point answer that need no
// reference: the counts, the verdict's index and the health flags.
func (f *fleet) checkScrape(i int, r service.PointsResponse) error {
	switch {
	case r.Appended != 1 || r.Total != f.total[i]:
		return fmt.Errorf("appended %d total %d, want 1 and %d", r.Appended, r.Total, f.total[i])
	case r.Persisted != nil || r.Degraded != nil:
		return errors.New("answer not persisted or degraded")
	case len(r.Verdicts) != 1:
		return fmt.Errorf("%d verdicts for one point", len(r.Verdicts))
	}
	v := r.Verdicts[0]
	if v.Index != f.total[i]-1 || v.Degraded || v.Probability < 0 || v.Probability > 1 || math.IsNaN(v.Probability) {
		return fmt.Errorf("verdict %+v at index %d", v, f.total[i]-1)
	}
	return nil
}

// daemonCounters are the /v1/metrics counters whose change over a run the
// traced run reports, by the short name used in the metric.
var daemonCounters = map[string]string{
	"points_ingested":            "opprenticed_points_ingested_total",
	"trainings":                  "opprenticed_trainings_total",
	"extract_points_cold":        `opprenticed_extract_points_total{mode="cold"}`,
	"extract_points_incremental": `opprenticed_extract_points_total{mode="incremental"}`,
	"model_publish":              "opprenticed_model_publish_total",
	"model_restore_warm":         `opprenticed_model_restore_total{mode="warm"}`,
	"model_restore_cold":         `opprenticed_model_restore_total{mode="cold"}`,
}

// failureCounters must not move during a run: each is a shed, a degraded
// series, a lost or failed write, or a refused request.
var failureCounters = []string{
	"opprenticed_ingest_sheds_total",
	"opprenticed_degraded_entered_total",
	"opprenticed_wal_lost_points_total",
	"opprenticed_wal_append_errors_total",
	"opprenticed_request_errors_total",
}

// settle reads the daemon's counters before it stops (they restart from
// zero), checks them against what this daemon process was sent, and adds
// them to the run's totals, the daemon.* readings.
func (f *fleet) settle() {
	c, err := f.d.counters()
	if !f.t.check(err, "read /v1/metrics") {
		return
	}
	got := int(c["opprenticed_points_ingested_total"])
	f.t.expect(got == f.sent, "points_ingested %d, sent %d", got, f.sent)
	for _, name := range failureCounters {
		f.t.expect(c[name] == 0, "%s = %v", name, c[name])
	}
	for short, name := range daemonCounters {
		f.res.outside["daemon."+short] += c[name]
	}
	f.sent = 0
}

// restart stops the daemon, optionally forgets its models, starts it again
// and returns the time from exec to the first 200 on /v1/readyz, in
// milliseconds.
func (f *fleet) restart(cold bool) (float64, error) {
	f.settle()
	if err := f.d.stop(); err != nil {
		return 0, err
	}
	f.hc.CloseIdleConnections() // they led to the old process
	if cold {
		if err := os.RemoveAll(f.d.modelDir); err != nil {
			return 0, err
		}
		if err := os.MkdirAll(f.d.modelDir, 0o755); err != nil {
			return 0, err
		}
	}
	took, err := f.d.start()
	return float64(took.Nanoseconds()) / 1e6, err
}

// statuses fetches the status of every trained series.
func (f *fleet) statuses(ctx context.Context) []engine.Status {
	out := make([]engine.Status, f.sh.trained)
	for i := range out {
		st, err := f.cl.Status(ctx, f.in[i].name)
		f.t.check(err, "status "+f.in[i].name)
		out[i] = st
	}
	return out
}

// usage is what the daemon spent on one phase, read from outside: points
// sent, growth of the data directory, CPU ticks and bytes sent to storage.
type usage struct {
	points, walBytes, userTicks, allTicks, wrote float64
}

// mark starts a stretch of load: what the daemon does from now on goes to
// the phase named by the next lap. A restart needs a new mark, because the
// /proc counters belong to the process.
func (f *fleet) mark() {
	f.lastProc, f.lastWAL = f.sample(), f.walBytes()
}

// lap ends a stretch of load in which points were sent: everything the
// daemon spent since the last mark or lap is added to the phase. It returns
// the CPU seconds of the stretch.
func (f *fleet) lap(phase string, points int) float64 {
	proc, wal := f.sample(), f.walBytes()
	u := f.use[phase]
	if u == nil {
		u = new(usage)
		f.use[phase] = u
	}
	u.points += float64(points)
	u.walBytes += wal - f.lastWAL
	u.userTicks += proc.userTicks - f.lastProc.userTicks
	u.allTicks += proc.userTicks + proc.sysTicks - f.lastProc.userTicks - f.lastProc.sysTicks
	u.wrote += proc.writeBytes - f.lastProc.writeBytes
	cpu := proc.cpuSeconds() - f.lastProc.cpuSeconds()
	f.lastProc, f.lastWAL = proc, wal
	f.sent += points
	return cpu
}

func (f *fleet) sample() procSample {
	s, err := f.d.sample()
	f.t.check(err, "read /proc")
	return s
}

func (f *fleet) walBytes() float64 {
	n, err := dirBytes(f.d.dataDir)
	f.t.check(err, "size data dir")
	return float64(n)
}

// phase adds a phase's provenance to the result.
func (f *fleet) phase(name string, ops int, unit string, samples int, t0 time.Time) *phaseInfo {
	f.res.phases = append(f.res.phases, phaseInfo{Name: name, Ops: ops, Unit: unit, Samples: samples, WallS: time.Since(t0).Seconds()})
	return &f.res.phases[len(f.res.phases)-1]
}

// runLifecycle takes the shape's fleet through every phase against a fresh
// daemon under dir. Failed operations go to t; an error is returned only
// when the run cannot go on.
func runLifecycle(ctx context.Context, sh shape, seed int64, bin, dir string, t *tally) (*e2eResult, error) {
	d, err := newDaemon(bin, dir)
	if err != nil {
		return nil, err
	}
	defer d.log.Close()
	if _, err := d.start(); err != nil {
		return nil, err
	}
	liveDaemon.Store(d)
	defer liveDaemon.Store(nil)
	defer d.kill()
	f := newFleet(sh, seed, d, t)
	f.empty = f.sample()

	f.setUpPhase(ctx)
	f.retrainPhase(ctx)
	if err := f.restorePhase(ctx); err != nil {
		return nil, err
	}
	if err := f.steadyPhase(ctx); err != nil {
		return nil, err
	}

	// Outside readings over the three steady phases, and the run's counters.
	res := f.res
	own := f.use[sh.primary]
	res.metrics["wal_bytes_per_pt"] = own.walBytes / own.points
	var steady usage
	for _, p := range []string{"stream", "scrape", "backfill"} {
		steady.points += f.use[p].points
		steady.userTicks += f.use[p].userTicks
		steady.allTicks += f.use[p].allTicks
		steady.wrote += f.use[p].wrote
	}
	res.outside["proc.write_bytes_per_pt"] = steady.wrote / steady.points
	res.outside["proc.cpu_share_user"] = steady.userTicks / steady.allTicks
	f.checkpoint(ctx)
	f.settle()
	if err := d.stop(); err != nil {
		t.fail("final stop: %v", err)
	}
	f.replayLogs(ctx)
	return res, nil
}

// setUpPhase sets up the trained series one after the other, so a series'
// time × series is a reading of the fleet's set-up time, and their median
// is steadier than one wall clock.
func (f *fleet) setUpPhase(ctx context.Context) {
	t0 := time.Now()
	f.mark()
	var setups, trains []float64
	for i := 0; i < f.sh.trained; i++ {
		whole, train := f.setUp(ctx, i)
		setups, trains = append(setups, whole*float64(f.sh.trained)), append(trains, train*1e3)
	}
	f.lap("setup", f.sh.trained*historyLen)
	f.res.record("setup_s", setups)
	f.res.record("train_cold_ms", trains)
	f.phase("setup", f.sh.trained, "series", len(setups), t0)
}

// retrainPhase runs the retrain rounds while the series are still as short as a weekly retrain meets them: a new labelled
// week, then train; at the end it waits for the publishes.
func (f *fleet) retrainPhase(ctx context.Context) {
	t0 := time.Now()
	var retrains []float64
	for r := 0; r < f.sh.retrainRounds; r++ {
		for i := 0; i < f.sh.trained; i++ {
			week := f.in[i].weeks[r]
			at := f.total[i]
			f.stream(ctx, func(send func(int, []float64)) { send(i, week.values) })
			f.label(ctx, i, shifted(week.windows, at))
			retrains = append(retrains, f.train(ctx, i)*1e3)
		}
	}
	f.awaitPublishes(ctx)
	f.lap("retrain", len(retrains)*weekPoints)
	f.res.connSeconds["retrain"] = f.res.record("retrain_ms", retrains) / 1e3
	f.phase("retrain", len(retrains), "trainings", len(retrains), t0)
}

// restorePhase restarts the daemon: warm a few times, then once with the
// model directory gone. The alarm ring does not survive a restart, so the
// sampled series are compared with the reference before the first one.
func (f *fleet) restorePhase(ctx context.Context) error {
	t0 := time.Now()
	f.checkpoint(ctx)
	pre := f.statuses(ctx)
	var warm []float64
	for w := 0; w <= f.sh.warmRestarts; w++ {
		cold := w == f.sh.warmRestarts
		ms, err := f.restart(cold)
		if err != nil {
			return err
		}
		f.checkRestored(ctx, pre, cold)
		if cold {
			f.res.metrics["restore_cold_ms_per_series"] = ms / float64(f.sh.trained)
		} else {
			warm = append(warm, ms/float64(f.sh.trained))
		}
	}
	f.res.record("restore_warm_ms_per_series", warm)
	f.phase("restore", f.sh.warmRestarts+1, "restarts", len(warm), t0)
	for _, l := range f.logs {
		if l != nil {
			l.ops = append(l.ops, seriesOp{kind: opColdRestart})
		}
	}
	return nil
}

// steadyPhase is the load a running daemon takes: trained series fed by
// ingest streams and by one-point scrapes, fresh series backfilled. The
// three run interleaved, in cycles of one stream round, one scrape slice
// (which supports its own p99) and one backfill round, so that the readings
// behind each metric are spread over the whole phase; the first cycle is
// not timed.
func (f *fleet) steadyPhase(ctx context.Context) error {
	lo, hi := f.sh.trained, f.sh.trained+f.sh.fresh
	for i := lo; i < hi; i++ {
		f.create(ctx, i)
	}
	slice := f.sh.scrapeRequests
	fill := f.sh.backfillPoints * f.sh.fresh / backfillFrame * backfillFrame
	var streamRates, cpus, scrapeRates, p50s, p99s, perReq, fillRates []float64
	var wall [3]time.Duration
	f.mark()
	for c := -1; c < f.sh.cycles; c++ {
		streamed := f.streamRound(ctx, 0, f.sh.trained, f.sh.streamPoints, streamFrame)
		cpu := f.lap("stream", f.sh.streamPoints)

		t0 := time.Now()
		lat := f.scrape(ctx, slice)
		scraped := time.Since(t0)
		f.lap("scrape", slice)
		sort.Float64s(lat)
		if !supportsPercentile(len(lat), 0.99) {
			return fmt.Errorf("scrape slice kept %d latencies, too few for p99", len(lat))
		}
		if c < 0 {
			// Resident size of the trained fleet, caches warm, before the
			// backfilled series start to grow beside it.
			f.res.metrics["rss_mb_per_series"] = (f.lastProc.rssKB - f.empty.rssKB) / 1024 / float64(f.sh.trained)
			f.res.outside["proc.threads"] = f.lastProc.threads
		}

		filled := f.streamRound(ctx, lo, hi, fill, backfillFrame)
		f.lap("backfill", fill)
		if c < 0 {
			continue
		}
		streamRates = append(streamRates, float64(f.sh.streamPoints)/streamed.Seconds())
		cpus = append(cpus, cpu*1e6/float64(f.sh.streamPoints))
		scrapeRates = append(scrapeRates, float64(len(lat))/scraped.Seconds())
		perReq = append(perReq, scraped.Seconds()/float64(len(lat)))
		p50s, p99s = append(p50s, percentile(lat, 0.50)), append(p99s, percentile(lat, 0.99))
		fillRates = append(fillRates, float64(fill)/filled.Seconds())
		wall[0], wall[1], wall[2] = wall[0]+streamed, wall[1]+scraped, wall[2]+filled
	}
	f.res.connSeconds["stream"] = 1 / f.res.record("stream_pts_per_s", streamRates)
	f.res.record("stream_cpu_us_per_pt", cpus)
	f.res.record("scrape_req_per_s", scrapeRates)
	f.res.record("scrape_p50_us", p50s)
	f.res.record("scrape_p99_us", p99s)
	f.res.connSeconds["scrape"] = median(perReq)
	f.res.connSeconds["backfill"] = 1 / f.res.record("backfill_pts_per_s", fillRates)

	for i := lo; i < hi; i++ {
		st, err := f.cl.Status(ctx, f.in[i].name)
		if err == nil && st.Points != f.total[i] {
			err = fmt.Errorf("holds %d points, sent %d", st.Points, f.total[i])
		}
		f.t.check(err, "backfilled "+f.in[i].name)
	}
	n := f.sh.cycles
	f.res.phases = append(f.res.phases,
		phaseInfo{Name: "stream", Ops: n * f.sh.streamPoints, Unit: "points", Samples: n, WallS: wall[0].Seconds()},
		phaseInfo{Name: "scrape", Ops: n * slice, Unit: "requests", Samples: slice, Beyond: samplesBeyond(slice, 0.99), WallS: wall[1].Seconds()},
		phaseInfo{Name: "backfill", Ops: n * fill, Unit: "points", Samples: n, WallS: wall[2].Seconds()})
	return nil
}

// checkpoint records what the daemon holds for each sampled series, its
// status and its alarm ring, for the reference to compare at the same point
// of the series' history.
func (f *fleet) checkpoint(ctx context.Context) {
	for i, l := range f.logs {
		if l == nil {
			continue
		}
		st, err := f.cl.Status(ctx, f.in[i].name)
		f.t.check(err, "status "+f.in[i].name)
		alarms, err := f.cl.Alarms(ctx, f.in[i].name, time.Time{})
		f.t.check(err, "alarms "+f.in[i].name)
		l.ops = append(l.ops, seriesOp{kind: opCheck, status: st, alarms: alarms})
	}
}

// awaitPublishes waits until the registry's current generation of every
// trained series covers all its points.
func (f *fleet) awaitPublishes(ctx context.Context) {
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < f.sh.trained; i++ {
		err := f.published(ctx, i)
		for err != nil && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
			err = f.published(ctx, i)
		}
		f.t.check(err, "publish "+f.in[i].name)
	}
}

func (f *fleet) published(ctx context.Context, i int) error {
	man, err := f.cl.ModelManifest(ctx, f.in[i].name)
	if err != nil {
		return err
	}
	for _, g := range man.Generations {
		if g.Gen == man.Current && g.Points == f.total[i] {
			return nil
		}
	}
	return fmt.Errorf("current generation %d does not cover %d points", man.Current, f.total[i])
}

// checkRestored compares every trained series after a restart with its
// status before: the same points either way, and after a warm restart the
// same model, so the same cThld bit for bit.
func (f *fleet) checkRestored(ctx context.Context, pre []engine.Status, cold bool) {
	c, err := f.d.counters()
	if f.t.check(err, "read /v1/metrics") {
		warm, coldN := c[daemonCounters["model_restore_warm"]], c[daemonCounters["model_restore_cold"]]
		want := [2]float64{float64(f.sh.trained), 0}
		if cold {
			want = [2]float64{0, float64(f.sh.trained)}
		}
		f.t.expect([2]float64{warm, coldN} == want, "restored %v warm %v cold, want %v", warm, coldN, want)
	}
	for i, got := range f.statuses(ctx) {
		switch {
		case got.Points != pre[i].Points || !got.Trained:
			f.t.fail("%s restored with %d points trained=%v, had %d", got.Name, got.Points, got.Trained, pre[i].Points)
		case !cold && math.Float64bits(got.CThld) != math.Float64bits(pre[i].CThld):
			f.t.fail("%s restored warm with cthld %v, had %v", got.Name, got.CThld, pre[i].CThld)
		default:
			f.t.ok()
		}
	}
}

// replayLogs runs the reference for every sampled series, in parallel now
// that the daemon is gone, and counts each comparison.
func (f *fleet) replayLogs(ctx context.Context) {
	var wg sync.WaitGroup
	for _, l := range f.logs {
		if l == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			compared, bad := l.replay(ctx)
			f.t.add(compared - len(bad))
			for _, m := range bad {
				f.t.fail("%s", m)
			}
		}()
	}
	wg.Wait()
}
