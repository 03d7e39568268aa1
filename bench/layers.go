package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"opprentice/internal/active"
	"opprentice/internal/alerting"
	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/engine"
	"opprentice/internal/ml/forest"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/service"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
	"opprentice/internal/tsdb"
)

// The traced run replays the run's generated inputs in-process, on one
// goroutine, at successively deeper public entry points: the service over a
// loopback socket, its handler without the socket, the engine with and
// without a store, the core monitor, and the detectors, forest and active
// state one by one. Every call is a span. Each composite's self time is its
// cost minus the cost of the next level down on the same batches, so the
// self times add up to the whole-stack cost exactly (see derive).
const (
	traceFrames      = 384  // 64-point frames in the streaming replay, round-robin over the series
	traceChunk       = 64   // frames per stream and per AppendBulk: the ingest handler's flush group
	traceRequests    = 1500 // one-point requests in the scrape replay
	traceFillSeries  = 4    // fresh series in the backfill replay
	traceFillFrames  = 200  // 256-point frames per fresh series
	traceSlowSeries  = 4    // series in the cold-restore, incremental-train and incremental-extract replays
	traceWALAppends  = 400  // appends per tsdb frame-size replay
	traceWALSingles  = 1000 // durable one-point appends in the tsdb replay
	numConfigs       = detectors.NumConfigurations
	monitorWarmWeeks = 6 // trailing history the engine replays into a loaded monitor
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// frame is one batch of the replay: consecutive live values of one series.
type frame struct {
	idx  int
	vals []float64
	pts  []engine.Point
}

func makeFrame(idx int, cur *liveCursor, n int) frame {
	vals := append([]float64(nil), cur.next(n, nil)...)
	pts := make([]engine.Point, n)
	for k, v := range vals {
		pts[k].Value = v
	}
	return frame{idx, vals, pts}
}

// stack is one in-process engine over a durable store and a model registry.
type stack struct {
	store *tsdb.Store
	eng   *engine.Engine
}

func (s *stack) close() {
	s.eng.Close()
	s.store.Close()
}

// layerRun holds what the replays share.
type layerRun struct {
	ctx context.Context
	tr  *tracer
	t   *tally
	dir string
	in  []seriesInput
	m   map[string]float64

	opens, warms replay // spans around tsdb.Open and Engine.Restore of each clone
}

// runLayers measures every per-layer metric for the (already reduced) shape
// and returns them with the readings the lifecycle took from outside.
func runLayers(ctx context.Context, tr *tracer, sh shape, seed int64, dir string, e2e *e2eResult, t *tally) (map[string]float64, error) {
	r := &layerRun{ctx: ctx, tr: tr, t: t, dir: filepath.Join(dir, "layers"), m: make(map[string]float64)}
	for i := 0; i < sh.trained+traceFillSeries; i++ {
		r.in = append(r.in, genSeries(seed, i))
	}
	trained, fresh := r.in[:sh.trained], r.in[sh.trained:]

	// The batches every level replays, in the order the load connection
	// would send them.
	cur := make([]liveCursor, len(r.in))
	for i := range cur {
		cur[i] = liveCursor{vals: r.in[i].live}
	}
	var frames, singles, fill []frame
	for k := 0; k < traceFrames; k++ {
		frames = append(frames, makeFrame(k%len(trained), &cur[k%len(trained)], streamFrame))
	}
	for k := 0; k < traceRequests; k++ {
		singles = append(singles, makeFrame(k%len(trained), &cur[k%len(trained)], 1))
	}
	for k := 0; k < traceFillFrames*len(fresh); k++ {
		i := sh.trained + k%len(fresh)
		fill = append(fill, makeFrame(i, &cur[i], backfillFrame))
	}

	// One engine writes the series' log and one, without a store, trains
	// and publishes their models; the levels that need a store restore warm
	// from copies of the two directories, so every level starts from the
	// same state for the price of one training pass.
	walDir, modelDir := filepath.Join(r.dir, "wal"), filepath.Join(r.dir, "models")
	if err := r.writeWAL(walDir, trained); err != nil {
		return nil, err
	}
	models, err := modelreg.Open(modelreg.Config{Dir: modelDir})
	if err != nil {
		return nil, err
	}
	heap := heapInuse()
	bare := engine.New(engine.Config{Log: quiet, Models: models})
	defer bare.Close()
	rp := tr.replay("engine.train_cold")
	for i, in := range trained {
		if err := seedSeries(ctx, bare, in); err != nil {
			return nil, err
		}
		rp.call("engine.Train", i, 1, func(replay) { _, err = bare.Train(ctx, in.name) })
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", in.name, err)
		}
	}
	rp.done()
	r.m["engine.train_cold.ms"] = rp.perUnit("") / 1e6
	bare.PublishModels()
	r.m["engine.heap_mb_per_series"] = (heapInuse() - heap) / (1 << 20) / float64(len(trained))
	n, err := dirBytes(modelDir)
	if err != nil {
		return nil, err
	}
	r.m["registry.bytes_per_series"] = float64(n) / float64(len(trained))

	r.opens, r.warms = tr.replay("tsdb.open"), tr.replay("engine.restore_warm")
	if err := r.tsdbLoad(walDir, trained); err != nil {
		return nil, err
	}
	lv := &levels{layerRun: r, bare: bare}
	if lv.mons, err = r.loadMonitors(models, trained); err != nil {
		return nil, err
	}
	top, err := r.clone(walDir, modelDir, "service")
	if err != nil {
		return nil, err
	}
	defer top.close()
	stop, err := lv.serve(top)
	if err != nil {
		return nil, err
	}
	defer stop()
	handler, err := r.clone(walDir, modelDir, "handler")
	if err != nil {
		return nil, err
	}
	defer handler.close()
	lv.handler = service.NewServerWithEngine(handler.eng, quiet).Handler()
	goroutines := runtime.NumGoroutine()
	stored, err := r.clone(walDir, modelDir, "engine")
	if err != nil {
		return nil, err
	}
	defer stored.close()
	lv.stored = stored.eng
	r.m["engine.goroutines_per_series"] = float64(runtime.NumGoroutine()-goroutines) / float64(len(trained))
	r.opens.done()
	r.warms.done()
	r.m["tsdb.open.ms"] = r.opens.perUnit("") / 1e6
	r.m["engine.restore_warm.ms_per_series"] = r.warms.perUnit("") / 1e6

	// The slow loops run on the store-less engine while its series are as
	// short as a weekly retrain meets them, before it replays the batches.
	if err := r.slowLoops(bare, trained); err != nil {
		return nil, err
	}
	if err := lv.prepareLeaves(trained); err != nil {
		return nil, err
	}
	defer lv.pipeline.Close()
	if err := lv.replayFrames(frames); err != nil {
		return nil, err
	}
	if err := lv.replayRequests(singles); err != nil {
		return nil, err
	}
	for _, in := range fresh {
		if err := lv.cl.Create(ctx, in.name, in.createRequest()); err != nil {
			return nil, err
		}
	}
	fills := tr.replay("service.backfill")
	for lo := 0; lo < len(fill); lo += traceChunk {
		if err := lv.ingest(fills, lo, fill[lo:min(lo+traceChunk, len(fill))]); err != nil {
			return nil, err
		}
	}
	fills.done()
	r.m["service.backfill.ns_per_pt"] = fills.perUnit("")

	if err := r.tsdbWrites(); err != nil {
		return nil, err
	}
	if err := r.registryWrites(models, trained); err != nil {
		return nil, err
	}

	derive(r.m)
	r.m["trace.span_overhead.ns"] = tr.overheadPerSpan("ingest stream")
	for name, v := range e2e.outside {
		r.m[name] = v
	}
	r.m["trace.gap_ratio.stream"] = r.m["service.ingest.ns_per_pt"] / (e2e.connSeconds["stream"] * 1e9)
	r.m["trace.gap_ratio.scrape"] = r.m["service.points.ns_per_req"] / (e2e.connSeconds["scrape"] * 1e9)
	r.m["trace.gap_ratio.backfill"] = r.m["service.backfill.ns_per_pt"] / (e2e.connSeconds["backfill"] * 1e9)
	r.m["trace.gap_ratio.retrain"] = r.m["engine.train_incr.ms"] / (e2e.connSeconds["retrain"] * 1e3)
	return r.m, nil
}

// derive fills in the self times: each composite minus the next level down,
// measured on the same batches. Per point the chain is service.ingest →
// engine.appendbulk → engine.appendbulk_nostore → core.stepbatch → detectors
// + forest, with the active-learning state a child of the engine; per
// request it is service.points → service.handler → engine.append →
// engine.append_nostore → core.step_cold. The self times and the leaves of
// a chain add up to its first entry exactly.
func derive(m map[string]float64) {
	leaves := m["forest.probrows.ns_per_pt"]
	for _, f := range detectorFamilies {
		leaves += m["detectors."+f+".ns_per_pt"]
	}
	m["service.self.ns_per_pt"] = m["service.ingest.ns_per_pt"] - m["engine.appendbulk.ns_per_pt"]
	m["engine.wal.ns_per_pt"] = m["engine.appendbulk.ns_per_pt"] - m["engine.appendbulk_nostore.ns_per_pt"]
	m["engine.self.ns_per_pt"] = m["engine.appendbulk_nostore.ns_per_pt"] - m["core.stepbatch.ns_per_pt"] - m["active.observe.ns_per_pt"]
	m["core.self.ns_per_pt"] = m["core.stepbatch.ns_per_pt"] - leaves

	m["net.self.ns_per_req"] = m["service.points.ns_per_req"] - m["service.handler.ns_per_req"]
	m["service.self.ns_per_req"] = m["service.handler.ns_per_req"] - m["engine.append.ns_per_req"]
	m["engine.wal.ns_per_req"] = m["engine.append.ns_per_req"] - m["engine.append_nostore.ns_per_req"]
	m["engine.self.ns_per_req"] = m["engine.append_nostore.ns_per_req"] - m["core.step_cold.ns_per_req"] - m["active.observe.ns_per_pt"]
}

// heapInuse returns the bytes in in-use heap spans after a collection.
func heapInuse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// seedSeries creates the series in eng and gives it its labelled history.
func seedSeries(ctx context.Context, eng *engine.Engine, in seriesInput) error {
	if err := eng.Create(in.name, in.config()); err != nil {
		return err
	}
	pts := make([]engine.Point, len(in.history))
	for k, v := range in.history {
		pts[k].Value = v
	}
	if _, err := eng.Append(ctx, in.name, pts, nil); err != nil {
		return err
	}
	_, err := eng.Label(ctx, in.name, in.labels)
	return err
}

// writeWAL has an engine with a store write the series' log under dir.
func (r *layerRun) writeWAL(dir string, ins []seriesInput) error {
	store, err := tsdb.Open(dir)
	if err != nil {
		return err
	}
	s := stack{store, engine.New(engine.Config{Log: quiet, Store: store})}
	defer s.close()
	for _, in := range ins {
		if err := seedSeries(r.ctx, s.eng, in); err != nil {
			return fmt.Errorf("write log of %s: %w", in.name, err)
		}
	}
	return nil
}

// clone copies the log and model directories and restores an engine from
// the copies, timing the open and the (warm) restore.
func (r *layerRun) clone(walDir, modelDir, name string) (*stack, error) {
	wal, mod := filepath.Join(r.dir, name, "wal"), filepath.Join(r.dir, name, "models")
	for src, dst := range map[string]string{walDir: wal, modelDir: mod} {
		if err := copyDir(src, dst); err != nil {
			return nil, err
		}
	}
	var store *tsdb.Store
	var err error
	r.opens.call("tsdb.Open", 0, 1, func(replay) { store, err = tsdb.Open(wal) })
	if err != nil {
		return nil, err
	}
	models, err := modelreg.Open(modelreg.Config{Dir: mod})
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{Log: quiet, Store: store, Models: models})
	restored := 0
	r.warms.call("engine.Restore", 0, len(r.in)-traceFillSeries, func(replay) { restored, err = eng.Restore(r.ctx) })
	if err != nil {
		return nil, err
	}
	if c := eng.Counters(); int(c.ModelRestoreWarm) != restored || restored != len(r.in)-traceFillSeries {
		r.t.fail("clone %s restored %d series, %d of them warm", name, restored, c.ModelRestoreWarm)
	}
	return &stack{store, eng}, nil
}

// tsdbLoad times the replay of each series' segments.
func (r *layerRun) tsdbLoad(walDir string, ins []seriesInput) error {
	var store *tsdb.Store
	var err error
	r.opens.call("tsdb.Open", 0, 1, func(replay) { store, err = tsdb.Open(walDir) })
	if err != nil {
		return err
	}
	defer store.Close()
	rp := r.tr.replay("tsdb.load")
	for i, in := range ins {
		var l *tsdb.Loaded
		rp.call("tsdb.Store.Load", i, 1, func(replay) { l, err = store.Load(in.name) })
		if err != nil {
			return err
		}
		if len(l.Values) != len(in.history) {
			r.t.fail("tsdb.Load %s: %d points, wrote %d", in.name, len(l.Values), len(in.history))
		}
	}
	rp.done()
	r.m["tsdb.load.ms_per_series"] = rp.perUnit("") / 1e6
	return nil
}

// loadMonitors loads every series' published model into a core monitor, as
// a warm restore does, timing the registry read and the monitor load.
func (r *layerRun) loadMonitors(models *modelreg.Registry, ins []seriesInput) ([]*core.Monitor, error) {
	loads, mons := r.tr.replay("registry.loadset"), r.tr.replay("core.loadmonitor")
	out := make([]*core.Monitor, len(ins))
	size := 0
	for i, in := range ins {
		var set *modelreg.LoadedSet
		var err error
		loads.call("registry.LoadSet", i, 1, func(replay) { set, err = models.LoadSet(in.name) })
		if err != nil {
			return nil, err
		}
		payload := set.Payloads[modelreg.KindVerdict]
		size += len(payload)
		recent := in.series(in.history[historyLen-monitorWarmWeeks*weekPoints:])
		mons.call("core.LoadMonitor", i, 1, func(replay) {
			out[i], err = core.LoadMonitor(bytes.NewReader(payload), recent, hourlyDetectors(), core.LoadConfig{
				Trees: forestTrees, Preference: stats.Preference{Recall: 0.66, Precision: 0.66},
			})
		})
		if err != nil {
			return nil, err
		}
	}
	loads.done()
	mons.done()
	r.m["registry.loadset.ms"] = loads.perUnit("") / 1e6
	r.m["core.loadmonitor.ms"] = mons.perUnit("") / 1e6
	r.m["core.savemodel.bytes"] = float64(size) / float64(len(ins))
	return out, nil
}

// levels holds one instance of the stack per entry point, all restored from
// the same state. The replays visit the entry points in turn chunk by
// chunk, not one entry point after the other, so that a slow stretch of the
// machine (another tenant, a slow fsync) weighs on every level alike, and
// report the median chunk.
type levels struct {
	*layerRun
	cl      *service.Client // a server over its own engine, on a loopback socket
	handler http.Handler    // the same server type over its own engine, no socket
	stored  *engine.Engine  // an engine with a store
	bare    *engine.Engine  // the engine that trained, without a store
	mons    []*core.Monitor

	// What a monitor step is made of, per series.
	dets     [][]detectors.Detector
	forests  []*forest.Forest
	states   []*active.State
	managers []*alerting.Manager
	pipeline *alerting.Pipeline
	seen     []int // live points each series' leaves have stepped

	vbuf []engine.Verdict
	out  []core.Verdict
}

// serve puts a server over the stack's engine on a loopback listener.
func (lv *levels) serve(s *stack) (stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: service.NewServerWithEngine(s.eng, quiet).Handler()}
	go hs.Serve(ln)
	lv.cl = service.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: &http.Transport{}, Timeout: time.Minute})
	return func() { hs.Close() }, nil
}

// ingest sends the chunk as one ingest stream through the loopback server.
// The stream is a span made of the client calls; its units are its points.
func (lv *levels) ingest(rp replay, op int, chunk []frame) error {
	points := len(chunk) * len(chunk[0].vals)
	var sum service.IngestSummary
	var err error
	rp.call("ingest stream", op, points, func(sub replay) {
		var st *service.PointStream
		sub.call("service.Client.StreamPoints", op, 0, func(replay) { st, err = lv.cl.StreamPoints(lv.ctx) })
		for k, fr := range chunk {
			if err != nil {
				return
			}
			sub.call("service.PointStream.Send", op+k, len(fr.vals), func(replay) { err = st.Send(lv.in[fr.idx].name, fr.vals) })
		}
		sub.call("service.PointStream.Close", op, 0, func(replay) { sum, err = st.Close() })
	})
	if err == nil && sum.Appended != points {
		lv.t.fail("ingest stream %d: appended %d of %d", op, sum.Appended, points)
	}
	return err
}

// appendBulk applies the chunk with one AppendBulk, as the ingest handler
// applies a pipelined stream.
func (lv *levels) appendBulk(rp replay, eng *engine.Engine, op int, chunk []frame) error {
	batches := make([]engine.SeriesBatch, len(chunk))
	points := 0
	for k, fr := range chunk {
		batches[k] = engine.SeriesBatch{Name: lv.in[fr.idx].name, Points: fr.pts}
		points += len(fr.pts)
	}
	var err error
	rp.call("engine.AppendBulk", op, points, func(replay) { _, lv.vbuf, err = eng.AppendBulk(lv.ctx, batches, lv.vbuf) })
	return err
}

// replayFrames takes the streaming frames through every entry point of the
// per-point chain, chunk by chunk.
func (lv *levels) replayFrames(frames []frame) error {
	ingest, bulk, bulkBare := lv.tr.replay("service.ingest"), lv.tr.replay("engine.appendbulk"), lv.tr.replay("engine.appendbulk_nostore")
	step := lv.tr.replay("core.stepbatch")
	det, prob := lv.tr.replay("detectors"), lv.tr.replay("forest.probrows")
	act, alert := lv.tr.replay("active.observe"), lv.tr.replay("alerting.observe")
	rows := make([]float64, streamFrame*numConfigs)
	probs := make([]float64, streamFrame)
	sizes := familySizes()
	for lo := 0; lo < len(frames); lo += traceChunk {
		chunk := frames[lo:min(lo+traceChunk, len(frames))]
		if err := lv.ingest(ingest, lo, chunk); err != nil {
			return err
		}
		if err := lv.appendBulk(bulk, lv.stored, lo, chunk); err != nil {
			return err
		}
		if err := lv.appendBulk(bulkBare, lv.bare, lo, chunk); err != nil {
			return err
		}
		for k, fr := range chunk {
			step.call("core.Monitor.StepBatch", lo+k, len(fr.vals), func(replay) {
				lv.out = lv.mons[fr.idx].StepBatch(fr.vals, lv.out[:0])
			})
		}
		// The leaves: each detector family's configurations, the forest
		// over the rows they produced, and the observers the engine hangs
		// on every verdict. A detector span covers one family over one
		// frame: a span per Step would cost more than the Step.
		for k, fr := range chunk {
			i, op := fr.idx, lo+k
			first := 0
			for f, size := range sizes {
				family := lv.dets[i][first : first+size]
				det.call("detectors."+detectorFamilies[f], op, len(fr.vals), func(replay) {
					for p, v := range fr.vals {
						for j, d := range family {
							sev, ready := d.Step(v)
							if !ready {
								sev = 0
							}
							rows[p*numConfigs+first+j] = sev
						}
					}
				})
				first += size
			}
			prob.call("forest.Forest.ProbRowsInto", op, len(fr.vals), func(replay) {
				lv.forests[i].ProbRowsInto(rows, numConfigs, probs)
			})
			cthld := lv.mons[i].CThld()
			base := historyLen + lv.seen[i]
			act.call("active.State.Observe", op, len(fr.vals), func(replay) {
				for p, pr := range probs {
					lv.states[i].Observe(base+p, pr, cthld)
				}
			})
			at := lv.in[i].start.Add(time.Duration(base) * time.Hour)
			alert.call("alerting.Manager.Observe", op, len(fr.vals), func(replay) {
				for p, pr := range probs {
					lv.managers[i].Observe(lv.ctx, at.Add(time.Duration(p)*time.Hour), pr >= cthld, pr)
				}
			})
			lv.seen[i] += len(fr.vals)
		}
	}
	for _, rp := range []replay{ingest, bulk, bulkBare, step, det, prob, act, alert} {
		rp.done()
	}
	lv.m["service.ingest.ns_per_pt"] = ingest.perUnit("")
	lv.m["engine.appendbulk.ns_per_pt"] = bulk.perUnit("")
	lv.m["engine.appendbulk_nostore.ns_per_pt"] = bulkBare.perUnit("")
	lv.m["core.stepbatch.ns_per_pt"] = step.perUnit("")
	for _, f := range detectorFamilies {
		lv.m["detectors."+f+".ns_per_pt"] = det.perUnit("detectors." + f)
	}
	lv.m["forest.probrows.ns_per_pt"] = prob.perUnit("")
	lv.m["active.observe.ns_per_pt"] = act.perUnit("")
	lv.m["alerting.observe.ns_per_pt"] = alert.perUnit("")
	return nil
}

// replayRequests takes the one-point requests through every entry point of
// the per-request chain, a chunk of requests at a time.
func (lv *levels) replayRequests(singles []frame) error {
	const chunk = 50
	points, handled := lv.tr.replay("service.points"), lv.tr.replay("service.handler")
	app, appBare := lv.tr.replay("engine.append"), lv.tr.replay("engine.append_nostore")
	cold, hot := lv.tr.replay("core.step_cold"), lv.tr.replay("core.step_hot")
	engineAppend := func(rp replay, eng *engine.Engine, k int, fr frame) error {
		var res engine.AppendResult
		var err error
		rp.call("engine.Append", k, 1, func(replay) { res, err = eng.Append(lv.ctx, lv.in[fr.idx].name, fr.pts, lv.vbuf) })
		if err != nil {
			return err
		}
		if len(res.Verdicts) != 1 || !res.Persisted || res.Degraded {
			lv.t.fail("engine.Append: request %d answered %+v", k, res)
		}
		lv.vbuf = res.Verdicts
		return nil
	}
	for lo := 0; lo < len(singles); lo += chunk {
		part := singles[lo:min(lo+chunk, len(singles))]
		for k, fr := range part {
			var resp service.PointsResponse
			var err error
			points.call("service.Client.Append", lo+k, 1, func(replay) { resp, err = lv.cl.Append(lv.ctx, lv.in[fr.idx].name, fr.pts) })
			if err != nil {
				return err
			}
			if len(resp.Verdicts) != 1 || resp.Persisted != nil || resp.Degraded != nil {
				lv.t.fail("service.points: request %d answered %+v", lo+k, resp)
			}
		}
		// The handler without a socket: pre-built requests into a recorder.
		for k, fr := range part {
			body := `{"points":[{"value":` + strconv.FormatFloat(fr.vals[0], 'g', -1, 64) + `}]}`
			req := httptest.NewRequest(http.MethodPost, "/v1/series/"+lv.in[fr.idx].name+"/points", bytes.NewReader([]byte(body)))
			rec := httptest.NewRecorder()
			handled.call("service.Handler.ServeHTTP", lo+k, 1, func(replay) { lv.handler.ServeHTTP(rec, req) })
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body)
			}
		}
		for k, fr := range part {
			if err := engineAppend(app, lv.stored, lo+k, fr); err != nil {
				return err
			}
		}
		for k, fr := range part {
			if err := engineAppend(appBare, lv.bare, lo+k, fr); err != nil {
				return err
			}
		}
		for k, fr := range part {
			cold.call("core.Monitor.Step", lo+k, 1, func(replay) { lv.mons[fr.idx].Step(fr.vals[0]) })
		}
		for k, fr := range part {
			hot.call("core.Monitor.Step", lo+k, 1, func(replay) { lv.mons[0].Step(fr.vals[0]) })
		}
	}
	for _, rp := range []replay{points, handled, app, appBare, cold, hot} {
		rp.done()
	}
	lv.m["service.points.ns_per_req"] = points.perUnit("")
	lv.m["service.handler.ns_per_req"] = handled.perUnit("")
	lv.m["engine.append.ns_per_req"] = app.perUnit("")
	lv.m["engine.append_nostore.ns_per_req"] = appBare.perUnit("")
	lv.m["core.step_cold.ns_per_req"] = cold.perUnit("")
	lv.m["core.step_hot.ns_per_req"] = hot.perUnit("")
	return nil
}

// prepareLeaves builds what a monitor step is made of for every series:
// detectors warmed over the history, a forest fitted on their features, and
// the engine's per-verdict observers. It times the cold extraction and the
// forest fit on the way, and then an incremental extraction of one more
// week against the warm cache.
func (lv *levels) prepareLeaves(ins []seriesInput) error {
	budget := core.NewCacheBudget(256 << 20)
	extract, fit := lv.tr.replay("core.extract_cold"), lv.tr.replay("forest.train")
	lv.dets = make([][]detectors.Detector, len(ins))
	lv.forests = make([]*forest.Forest, len(ins))
	lv.states = make([]*active.State, len(ins))
	lv.managers = make([]*alerting.Manager, len(ins))
	lv.seen = make([]int, len(ins))
	lv.pipeline = alerting.NewPipeline(noopNotifier{}, alerting.PipelineConfig{Log: quiet})
	caches := make([]*core.FeatureCache, len(ins))
	for i, in := range ins {
		caches[i] = core.NewFeatureCache(budget)
		var feats *core.Features
		var err error
		extract.call("core.ExtractIncremental", i, 1, func(replay) {
			feats, lv.dets[i], err = core.ExtractIncremental(caches[i], in.series(in.history), hourlyDetectors(), core.ExtractConfig{})
		})
		if err != nil {
			return err
		}
		var windows []timeseries.Window
		for _, w := range in.labels {
			windows = append(windows, timeseries.Window{Start: w.Start, End: w.End})
		}
		labels := timeseries.FromWindows(historyLen, windows)
		fit.call("forest.Train", i, 1, func(replay) {
			lv.forests[i] = forest.Train(feats.ImputedFull(), labels, forest.Config{Trees: forestTrees, Seed: 1})
		})
		// The engine's defaults: a drift window of one day of points.
		lv.states[i] = active.NewState(active.Config{DriftWindow: 24})
		lv.managers[i] = &alerting.Manager{Series: in.name, Notifier: lv.pipeline}
	}
	extract.done()
	fit.done()
	lv.m["core.extract_cold.ms"] = extract.perUnit("") / 1e6
	lv.m["forest.train.ms"] = fit.perUnit("") / 1e6

	incr := lv.tr.replay("core.extract_incr")
	for i, in := range ins[:min(traceSlowSeries, len(ins))] {
		longer := in.series(append(append([]float64(nil), in.history...), in.weeks[0].values...))
		var err error
		incr.call("core.ExtractIncremental", i, 1, func(replay) {
			_, _, err = core.ExtractIncremental(caches[i], longer, hourlyDetectors(), core.ExtractConfig{})
		})
		if err != nil {
			return err
		}
	}
	incr.done()
	lv.m["core.extract_incr.ms"] = incr.perUnit("") / 1e6
	return nil
}

// hourlyDetectors builds a fresh set of the 133 configurations for an hourly
// series; an hour divides a day, so the registry cannot refuse.
func hourlyDetectors() []detectors.Detector {
	ds, err := detectors.Registry(time.Hour)
	if err != nil {
		panic(err)
	}
	return ds
}

type noopNotifier struct{}

func (noopNotifier) Notify(context.Context, alerting.Event) error { return nil }

// slowLoops times an incremental retrain (a new labelled week on the
// store-less engine, whose feature cache is warm) and a cold restore (an
// engine over a log with no models, which trains every series).
func (r *layerRun) slowLoops(bare *engine.Engine, ins []seriesInput) error {
	ins = ins[:min(traceSlowSeries, len(ins))]
	rp := r.tr.replay("engine.train_incr")
	for i, in := range ins {
		st, err := bare.Status(r.ctx, in.name)
		if err != nil {
			return err
		}
		week := makeFrame(i, &liveCursor{vals: in.weeks[0].values}, weekPoints)
		if _, err := bare.Append(r.ctx, in.name, week.pts, nil); err != nil {
			return err
		}
		if ws := shifted(in.weeks[0].windows, st.Points); len(ws) > 0 {
			if _, err := bare.Label(r.ctx, in.name, ws); err != nil {
				return err
			}
		}
		rp.call("engine.Train", i, 1, func(replay) { _, err = bare.Train(r.ctx, in.name) })
		if err != nil {
			return err
		}
	}
	rp.done()
	r.m["engine.train_incr.ms"] = rp.perUnit("") / 1e6

	dir := filepath.Join(r.dir, "cold")
	if err := r.writeWAL(filepath.Join(dir, "wal"), ins); err != nil {
		return err
	}
	store, err := tsdb.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	models, err := modelreg.Open(modelreg.Config{Dir: filepath.Join(dir, "models")})
	if err != nil {
		return err
	}
	s := stack{store, engine.New(engine.Config{Log: quiet, Store: store, Models: models})}
	defer s.close()
	rp = r.tr.replay("engine.restore_cold")
	rp.call("engine.Restore", 0, len(ins), func(replay) { _, err = s.eng.Restore(r.ctx) })
	rp.done()
	if err != nil {
		return err
	}
	if c := s.eng.Counters(); int(c.ModelRestoreCold) != len(ins) {
		r.t.fail("cold restore trained %d of %d series", c.ModelRestoreCold, len(ins))
	}
	r.m["engine.restore_cold.ms_per_series"] = rp.perUnit("") / 1e6
	return nil
}

// tsdbWrites times the store as a writer at the three frame sizes the
// workloads use: 64-point frames, 256-point frames and durable single points
// (a group commit and an fsync wait each).
func (r *layerRun) tsdbWrites() error {
	dir := filepath.Join(r.dir, "tsdb")
	store, err := tsdb.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	names := []string{"w0", "w1", "w2", "w3"}
	for _, n := range names {
		if err := store.CreateSeries(tsdb.Meta{Name: n, Start: r.in[0].start, IntervalSeconds: 3600, Trees: forestTrees}); err != nil {
			return err
		}
	}
	cur := liveCursor{vals: r.in[0].live}
	write := func(metric, bytesMetric string, size, appends int) error {
		before, err := dirBytes(dir)
		if err != nil {
			return err
		}
		batches := make([][]float64, appends)
		for k := range batches {
			batches[k] = append([]float64(nil), cur.next(size, nil)...)
		}
		rp := r.tr.replay(metric)
		for k := 0; k < appends && err == nil; k++ {
			rp.call("tsdb.Store.AppendPoints", k, size, func(replay) {
				err = store.AppendPoints(r.ctx, names[k%len(names)], batches[k])
			})
		}
		rp.done()
		if err != nil {
			return err
		}
		after, err := dirBytes(dir)
		if err != nil {
			return err
		}
		r.m[metric] = rp.perUnit("")
		r.m[bytesMetric] = float64(after-before) / float64(appends*size)
		return nil
	}
	if err := write("tsdb.appendpoints64.ns_per_pt", "tsdb.bytes_per_pt.64", streamFrame, traceWALAppends); err != nil {
		return err
	}
	if err := write("tsdb.appendpoints256.ns_per_pt", "tsdb.bytes_per_pt.256", backfillFrame, traceWALAppends); err != nil {
		return err
	}
	return write("tsdb.appendpoints1.ns_per_req", "tsdb.bytes_per_pt.1", 1, traceWALSingles)
}

// registryWrites times the publication of a real model artifact.
func (r *layerRun) registryWrites(models *modelreg.Registry, ins []seriesInput) error {
	scratch, err := modelreg.Open(modelreg.Config{Dir: filepath.Join(r.dir, "registry")})
	if err != nil {
		return err
	}
	rp := r.tr.replay("registry.publishset")
	for i, in := range ins {
		set, err := models.LoadSet(in.name)
		if err != nil {
			return err
		}
		info := modelreg.Info{Fingerprint: set.Fingerprint, Points: set.Points, CThld: set.CThld, TrainedAt: set.TrainedAt}
		rp.call("registry.PublishSet", i, 1, func(replay) { _, err = scratch.PublishSet(in.name, info, set.Payloads) })
		if err != nil {
			return err
		}
	}
	rp.done()
	r.m["registry.publishset.ms"] = rp.perUnit("") / 1e6
	return nil
}

// copyDir copies the regular files under src to the same paths under dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
