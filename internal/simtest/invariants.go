package simtest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"opprentice/internal/engine"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/tsdb"
)

// hookTimeout bounds every wait on an engine lifecycle hook. The engine's
// work per round is milliseconds at simulation scale, so a minute means
// "wedged", not "slow".
const hookTimeout = 60 * time.Second

// traceTail is how many trailing step-trace lines a Violation carries.
const traceTail = 40

// Violation is one invariant failure, carrying everything needed to
// reproduce it: the scenario seed, the step, and the trailing step trace.
type Violation struct {
	Seed      int64
	Step      int
	Invariant string
	Detail    string
	Long      bool
	Trace     []string
}

// Error renders the violation with its reproduction command.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simtest: invariant %q violated at step %d (seed %d): %s\n",
		v.Invariant, v.Step, v.Seed, v.Detail)
	fmt.Fprintf(&b, "reproduce: go test ./internal/simtest -run TestSimSeed -seed=%d", v.Seed)
	if v.Long {
		b.WriteString(" -sim.long")
	}
	if len(v.Trace) > 0 {
		fmt.Fprintf(&b, "\ntrace (last %d events):", len(v.Trace))
		for _, line := range v.Trace {
			b.WriteString("\n  ")
			b.WriteString(line)
		}
	}
	return b.String()
}

// fail builds a *Violation for the named invariant at the current step.
func (h *Harness) fail(invariant, format string, args ...any) error {
	trace := h.trace
	if len(trace) > traceTail {
		trace = trace[len(trace)-traceTail:]
	}
	return &Violation{
		Seed:      h.scen.Seed,
		Step:      h.step,
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
		Long:      h.long,
		Trace:     append([]string(nil), trace...),
	}
}

// awaitTrain waits for the next TrainDone event of the named series,
// stashing events of other series (the publish worker and restore pool do
// not promise cross-series ordering).
func (h *Harness) awaitTrain(name string) (trainEvent, error) {
	ev, ok := h.awaitTrainWithin(name, hookTimeout)
	if !ok {
		return trainEvent{}, h.fail("hook_timeout", "no TrainDone for %s within %v", name, hookTimeout)
	}
	return ev, nil
}

// awaitTrainWithin is awaitTrain with a caller-chosen timeout and no
// violation on expiry (ok=false instead): the stall orchestration turns a
// missing TrainDone into a watchdog violation of its own.
func (h *Harness) awaitTrainWithin(name string, d time.Duration) (trainEvent, bool) {
	if evs := h.trainStash[name]; len(evs) > 0 {
		ev := evs[0]
		h.trainStash[name] = evs[1:]
		return ev, true
	}
	timeout := time.After(d)
	for {
		select {
		case ev := <-h.trainCh:
			if ev.series == name {
				return ev, true
			}
			h.trainStash[ev.series] = append(h.trainStash[ev.series], ev)
		case <-timeout:
			return trainEvent{}, false
		}
	}
}

// awaitPub waits for the next PublishDone event of the named series,
// stashing events of other series.
func (h *Harness) awaitPub(name string) (pubEvent, error) {
	if evs := h.pubStash[name]; len(evs) > 0 {
		ev := evs[0]
		h.pubStash[name] = evs[1:]
		return ev, nil
	}
	timeout := time.After(hookTimeout)
	for {
		select {
		case ev := <-h.pubCh:
			if ev.series == name {
				return ev, nil
			}
			h.pubStash[ev.series] = append(h.pubStash[ev.series], ev)
		case <-timeout:
			return pubEvent{}, h.fail("hook_timeout", "no PublishDone for %s within %v", name, hookTimeout)
		}
	}
}

// checkManifest re-reads the series' manifest bytes from disk, asserts they
// parse, that the current generation has an intact entry, and that every
// artifact kind the entry names is on disk and not truncated — the
// multi-kind publish commits atomically, so a manifest may never name a
// kind whose artifact did not land. With checkCThld the current entry must
// also record exactly the given threshold and the mirror's training
// watermark, and the live monitor must agree with the manifest about the
// type head — the manifest and the live monitor may never disagree about
// what is deployed.
func (h *Harness) checkManifest(st *seriesState, cthld float64, checkCThld bool) error {
	name := st.spec.Name
	path := filepath.Join(h.modelDir, name, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return h.fail("manifest", "series %s: manifest unreadable: %v", name, err)
	}
	man, err := modelreg.ParseManifest(data)
	if err != nil {
		return h.fail("manifest", "series %s: manifest on disk does not parse: %v", name, err)
	}
	cur := manifestCurrent(*man)
	if cur == nil {
		return h.fail("manifest", "series %s: current generation %d has no manifest entry", name, man.Current)
	}
	for _, kind := range cur.Kinds() {
		ref := cur.Ref(kind)
		if ref == nil {
			return h.fail("manifest", "series %s: current generation %d lists kind %q without an artifact ref", name, cur.Gen, kind)
		}
		path := filepath.Join(h.modelDir, name, ref.File)
		fi, err := os.Stat(path)
		if _, qerr := os.Stat(path + ".corrupt"); err != nil && qerr == nil && kind != modelreg.KindVerdict {
			// A torn secondary kind a restore set aside: the generation
			// serves without it (a rollback can make it current again).
			continue
		}
		if err != nil {
			return h.fail("manifest", "series %s: current generation %d kind %q artifact %s missing — the kind set did not publish atomically: %v",
				name, cur.Gen, kind, ref.File, err)
		}
		if fi.Size() < ref.Size {
			return h.fail("manifest", "series %s: current generation %d kind %q artifact %s truncated: %d bytes on disk for a %d-byte payload",
				name, cur.Gen, kind, ref.File, fi.Size(), ref.Size)
		}
	}
	if checkCThld {
		if math.Float64bits(cur.CThld) != math.Float64bits(cthld) {
			return h.fail("manifest", "series %s: manifest cthld %v for gen %d, live training produced %v", name, cur.CThld, cur.Gen, cthld)
		}
		if cur.Points != st.pointsAtTrain {
			return h.fail("manifest", "series %s: manifest gen %d published at %d points, mirror watermark %d", name, cur.Gen, cur.Points, st.pointsAtTrain)
		}
		status, serr := h.eng.Status(context.Background(), name)
		if serr != nil {
			return h.fail("manifest", "series %s: status after publish: %v", name, serr)
		}
		if hasType := cur.Ref(modelreg.KindType) != nil; status.TypedModel != hasType {
			return h.fail("manifest", "series %s: live type head %v but just-published generation %d has a type artifact %v — both heads must publish and swap together",
				name, status.TypedModel, cur.Gen, hasType)
		}
	}
	return nil
}

// crashRestore closes the live engine gracefully, snapshots the disk state,
// restores a fresh engine from it, and cross-checks the result against the
// mirror and against a twin engine restored from the byte-identical snapshot.
func (h *Harness) crashRestore() error {
	h.crashes++
	h.tracef("step %d: crash (restore #%d)", h.step, h.crashes)
	if h.twin != nil {
		h.discardTwin()
	}

	// The resilience counters die with the instance: settle the mirror's
	// predictions against them before the teardown.
	if err := h.checkResilience(); err != nil {
		return err
	}

	// Graceful crash: torn WAL tails are tsdb's own fault-test territory; the
	// simulation exercises the restore ladder over consistent logs.
	h.eng.Close()
	h.store.Close()
	if err := h.assertQuiescent(); err != nil {
		return err
	}

	// Snapshot the disk before anything reopens it: the twin must restore
	// from byte-identical state.
	twinDir := filepath.Join(h.scratch, fmt.Sprintf("twin-%d", h.crashes))
	twinData := filepath.Join(twinDir, "data")
	twinModels := filepath.Join(twinDir, "models")
	if err := copyTree(h.dataDir, twinData); err != nil {
		return fmt.Errorf("simtest: snapshot data dir: %w", err)
	}
	if err := copyTree(h.modelDir, twinModels); err != nil {
		return fmt.Errorf("simtest: snapshot model dir: %w", err)
	}

	// Evaluate the torn-artifact expectations against the mirror before any
	// restore-driven publication can move the generation count.
	tornPending := false
	if h.tornSeries != "" {
		st := h.mirror[h.tornSeries]
		tornPending = !st.dead && !st.corrupted && h.tornPubLen == len(st.pubs)
	}
	tornTypePending := false
	if h.tornTypeSeries != "" {
		st := h.mirror[h.tornTypeSeries]
		tornTypePending = !st.dead && !st.corrupted && h.tornTypePubLen == len(st.pubs)
	}

	// Restore the live engine.
	if err := h.buildEngine(); err != nil {
		return err
	}
	restored, err := h.eng.Restore(context.Background())
	if err != nil {
		return h.fail("restore", "engine restore failed: %v", err)
	}
	c := h.eng.Counters()

	// Corrupt WALs must be quarantined, exactly once each, and their series
	// must be gone from the engine (one bad log never takes down the rest).
	expectQuarantined := 0
	for _, name := range h.names {
		st := h.mirror[name]
		if st.corrupted && !st.dead {
			expectQuarantined++
			st.dead = true
			if _, serr := h.eng.Status(context.Background(), name); !errors.Is(serr, engine.ErrNotFound) {
				return h.fail("wal", "series %s: corrupt WAL but restore served it anyway (status err %v)", name, serr)
			}
			if err := h.checkQuarantined(name); err != nil {
				return err
			}
			h.tracef("step %d: restore quarantined %s", h.step, name)
		}
	}
	if c.WALQuarantined != int64(expectQuarantined) {
		return h.fail("wal", "restore quarantined %d logs, mirror expected %d", c.WALQuarantined, expectQuarantined)
	}
	alive := 0
	for _, name := range h.names {
		if !h.mirror[name].dead {
			alive++
		}
	}
	if restored != alive {
		return h.fail("restore", "restore recovered %d series, mirror expected %d alive", restored, alive)
	}

	// Torn artifact: the registry must have caught the flipped byte while
	// walking the warm rung — unless the series published again after the
	// fault (the torn generation is then no longer current) or died first.
	if h.tornSeries != "" {
		if tornPending && c.ModelChecksumFailures == 0 {
			return h.fail("torn_artifact", "series %s: artifact torn before the crash but the registry reported no checksum failure — the damaged frame was served",
				h.tornSeries)
		}
		h.tracef("step %d: torn artifact on %s detected by restore (checksum failures %d)", h.step, h.tornSeries, c.ModelChecksumFailures)
		h.tornSeries, h.tornPubLen = "", 0
	} else if h.tornTypeSeries == "" && c.ModelChecksumFailures != 0 {
		return h.fail("torn_artifact", "restore reported %d artifact checksum failures with no torn-artifact fault scheduled", c.ModelChecksumFailures)
	}

	// Split the survivors into cold (TrainDone fired during Restore) and
	// warm. Cold restores retrain on the full WAL and republish; warm ones
	// must serve exactly the manifest's current generation.
	cold := make(map[string]engine.TrainResult)
	for {
		select {
		case ev := <-h.trainCh:
			if ev.err != nil {
				return h.fail("restore", "series %s: cold restore training failed: %v", ev.series, ev.err)
			}
			cold[ev.series] = ev.res
		default:
			goto drained
		}
	}
drained:
	for name, res := range cold {
		st := h.mirror[name]
		if st.dead {
			return h.fail("restore", "series %s: quarantined but cold-retrained anyway", name)
		}
		if res.Points != st.total {
			return h.fail("restore", "series %s: cold restore trained on %d points, WAL holds %d", name, res.Points, st.total)
		}
		st.pointsAtTrain = st.total
		h.trains++
		if err := h.awaitPublishInto(st, res); err != nil {
			return err
		}
		if err := h.checkManifest(st, res.CThld, true); err != nil {
			return err
		}
		if err := h.eng.VerifyFeatureCache(name); err != nil {
			return h.fail("extract_cache", "series %s: incremental extraction diverges from cold after cold restore: %v", name, err)
		}
		h.tracef("step %d: %s restored cold (%d points, cthld=%.4f)", h.step, name, res.Points, res.CThld)
	}
	if c.ModelRestoreCold != int64(len(cold)) {
		return h.fail("restore", "engine counted %d cold restores, hooks saw %d", c.ModelRestoreCold, len(cold))
	}
	if c.ModelRestoreWarm != int64(alive-len(cold)) {
		return h.fail("restore", "engine counted %d warm restores, mirror expected %d", c.ModelRestoreWarm, alive-len(cold))
	}
	h.expRestoreWarm, h.expRestoreCold = int64(alive-len(cold)), int64(len(cold))

	// Torn type artifact: one torn secondary kind must cost exactly that kind.
	// The registry quarantines it (a checksum failure), the generation stays
	// current and serves verdicts warm, and the restored engine runs without
	// a type head until the next publish.
	if h.tornTypeSeries != "" {
		name := h.tornTypeSeries
		if tornTypePending {
			if c.ModelChecksumFailures == 0 {
				return h.fail("torn_artifact", "series %s: type artifact torn before the crash but the registry reported no checksum failure — the damaged head was served", name)
			}
			if _, isCold := cold[name]; isCold {
				return h.fail("torn_artifact", "series %s: one torn secondary kind forced a cold restore — the verdict head must keep the generation serving warm", name)
			}
			status, serr := h.eng.Status(context.Background(), name)
			if serr != nil {
				return h.fail("torn_artifact", "series %s: status after torn-type restore: %v", name, serr)
			}
			if status.TypedModel {
				return h.fail("torn_artifact", "series %s: type artifact torn and quarantined but the restored engine still serves a type head", name)
			}
			h.tracef("step %d: torn type artifact on %s quarantined by restore (checksum failures %d)", h.step, name, c.ModelChecksumFailures)
		}
		h.tornTypeSeries, h.tornTypePubLen = "", 0
	}

	// Per-series state checks against the mirror, and the warm-path pin: a
	// warm series serves the manifest's current generation, bit for bit.
	for _, name := range h.names {
		st := h.mirror[name]
		if st.dead {
			continue
		}
		status, serr := h.eng.Status(context.Background(), name)
		if serr != nil {
			return h.fail("restore", "series %s: status after restore: %v", name, serr)
		}
		if status.Points != st.total {
			return h.fail("wal", "series %s: WAL replay produced %d points, mirror appended %d", name, status.Points, st.total)
		}
		if want := countTrue(st.labels); status.AnomalousPoints != want {
			return h.fail("wal", "series %s: WAL replay produced %d anomalous labels, mirror holds %d", name, status.AnomalousPoints, want)
		}
		if !status.Trained {
			return h.fail("restore", "series %s: restored without a classifier despite trainable history", name)
		}
		if _, isCold := cold[name]; !isCold {
			man, merr := h.eng.ModelManifest(name)
			if merr != nil {
				return h.fail("manifest", "series %s: manifest unreadable after warm restore: %v", name, merr)
			}
			cur := manifestCurrent(man)
			if cur == nil {
				return h.fail("manifest", "series %s: current generation %d has no entry after warm restore", name, man.Current)
			}
			if math.Float64bits(status.CThld) != math.Float64bits(cur.CThld) {
				return h.fail("restore", "series %s: warm restore serves cthld %v but manifest gen %d published %v",
					name, status.CThld, cur.Gen, cur.CThld)
			}
			if !status.TrainedAt.Equal(cur.TrainedAt) {
				return h.fail("restore", "series %s: warm restore serves a model trained at %v, manifest gen %d records %v",
					name, status.TrainedAt, cur.Gen, cur.TrainedAt)
			}
			if wantTyped := typeArtifactLoadable(h.modelDir, name, cur); status.TypedModel != wantTyped {
				return h.fail("restore", "series %s: warm restore serves type head %v but manifest gen %d has a loadable type artifact %v",
					name, status.TypedModel, cur.Gen, wantTyped)
			}
			st.pointsAtTrain = cur.Points
			h.tracef("step %d: %s restored warm (gen %d, %d points)", h.step, name, cur.Gen, cur.Points)
		}
		st.anomSinceRestore = 0
	}
	h.ingestSinceRestore = 0

	// WAL files must replay bit-identically to the mirror right now, not
	// just at the end of the run.
	if err := h.checkWALs(); err != nil {
		return err
	}

	// Restore determinism: a twin engine restored from the byte-identical
	// snapshot must agree with the live engine on every observable, and (via
	// the probe in appendChecked) on every verdict of the next step.
	tstore, err := tsdb.Open(twinData)
	if err != nil {
		return fmt.Errorf("simtest: open twin store: %w", err)
	}
	tmodels, err := modelreg.Open(modelreg.Config{Dir: twinModels, Keep: 4})
	if err != nil {
		return fmt.Errorf("simtest: open twin registry: %w", err)
	}
	twin := &twinState{store: tstore, dir: twinDir, trainCh: make(chan trainEvent, 1024), pubCh: make(chan pubEvent, 1024)}
	teng := engine.New(h.engineConfig(tstore, tmodels, newRecorder(h.scen.Seed, 0), hooksTo(twin.trainCh, twin.pubCh)))
	if _, err := teng.Restore(context.Background()); err != nil {
		teng.Close()
		tstore.Close()
		return h.fail("restore_determinism", "twin restore from identical disk state failed: %v", err)
	}
	twin.eng = teng
	h.twin = twin
	// The twin must restore the same series cold, to the same thresholds,
	// and have published them before anything else awaits its hooks.
	var coldNames []string
	for name := range cold {
		coldNames = append(coldNames, name)
	}
	twinCold, err := h.awaitTwin(coldNames...)
	if err != nil {
		return err
	}
	for name, res := range twinCold {
		if math.Float64bits(res.CThld) != math.Float64bits(cold[name].CThld) {
			return h.fail("restore_determinism", "series %s: cold restore trained cthld %v, the twin's %v", name, cold[name].CThld, res.CThld)
		}
	}
	for _, name := range h.names {
		st := h.mirror[name]
		if st.dead {
			continue
		}
		live, lerr := h.eng.Status(context.Background(), name)
		twin, terr := teng.Status(context.Background(), name)
		if lerr != nil || terr != nil {
			return h.fail("restore_determinism", "series %s: status live err %v, twin err %v", name, lerr, terr)
		}
		if live.Points != twin.Points || live.AnomalousPoints != twin.AnomalousPoints ||
			live.LabeledWindows != twin.LabeledWindows || live.Trained != twin.Trained ||
			live.TypedModel != twin.TypedModel ||
			math.Float64bits(live.CThld) != math.Float64bits(twin.CThld) {
			return h.fail("restore_determinism", "series %s: two engines restored from identical disk state diverge: live %+v vs twin %+v",
				name, live, twin)
		}
	}
	h.tracef("step %d: restore complete (%d warm, %d cold), twin agrees", h.step, alive-len(cold), len(cold))
	return nil
}

// discardTwin shuts the twin engine down and removes its disk snapshot.
func (h *Harness) discardTwin() {
	h.twin.eng.Close()
	h.twin.store.Close()
	_ = os.RemoveAll(h.twin.dir)
	h.twin = nil
}

// preCloseChecks compares the engine's global counters against the mirror
// just before the final shutdown.
func (h *Harness) preCloseChecks() error {
	c := h.eng.Counters()
	if c.WALAppendErrors != 0 {
		return h.fail("wal", "%d WAL appends failed during the run", c.WALAppendErrors)
	}
	if c.PointsIngested != int64(h.ingestSinceRestore) {
		return h.fail("append", "engine counted %d ingested points since the last restore, harness appended %d",
			c.PointsIngested, h.ingestSinceRestore)
	}
	anoms := 0
	for _, name := range h.names {
		st := h.mirror[name]
		if !st.dead {
			anoms += st.anomSinceRestore
		}
	}
	if c.AlarmsRaised != int64(anoms) {
		return h.fail("verdicts", "engine raised %d alarms since the last restore, harness observed %d anomalous verdicts",
			c.AlarmsRaised, anoms)
	}
	if h.scen.DetectorPanics && c.DetectorPanics == 0 {
		return h.fail("sandbox", "scenario runs a deterministically panicking detector but no panic was sandboxed")
	}
	if !h.scen.DetectorPanics && c.DetectorPanics != 0 {
		return h.fail("sandbox", "%d detector panics sandboxed with no panicking detector configured", c.DetectorPanics)
	}
	return h.checkResilience()
}

// checkExported is the per-step truth check on the daemon's self-report: the
// samples /v1/metrics would render right now — engine.Metrics read
// in-process, keyed by declaring field plus labels so no exposition name is
// spelled a second time — must equal what the mirror predicts since the last
// restore. Every step ends quiescent, so the comparison is exact. Wall-time
// families — TrainingMillis and the four training stage counters — have no
// mirror prediction and are not compared.
func (h *Harness) checkExported() error {
	got := make(map[string]float64)
	for _, f := range h.eng.Metrics() {
		for _, s := range f.Samples {
			got[s.Field+s.Labels] = s.Value
		}
	}
	if h.MutateExported != nil {
		h.MutateExported(h.step, got)
	}
	type expect struct {
		sample string
		want   int64
	}
	wants := []expect{
		{"PointsIngested", int64(h.ingestSinceRestore)},
		{"IngestSheds", h.expSheds},
		{"DegradedEntered", h.expDegEntered},
		{"DegradedRecovered", h.expDegRecovered},
		{"WALBufferedPoints", h.expBuffered},
		{"TrainStalls", h.expStalls},
		{"TrainRetries", h.expRetries},
		{"SeriesQuarantined", h.expQuarantined},
		{"ModelPublishes", h.expPublishes},
		{`ModelRestoreWarm{mode="warm"}`, h.expRestoreWarm},
		{`ModelRestoreCold{mode="cold"}`, h.expRestoreCold},
		{"DegradedSeries", 0},
		{"QuarantinedSeries", 0},
	}
	for _, name := range h.names {
		if st := h.mirror[name]; !st.dead {
			wants = append(wants, expect{`Points{series="` + name + `"}`, int64(st.total)})
		}
	}
	for _, w := range wants {
		if v, ok := got[w.sample]; !ok || v != float64(w.want) {
			return h.fail("metrics", "the daemon would export %s = %v (exported: %v), mirror expected %d", w.sample, v, ok, w.want)
		}
	}
	return nil
}

// assertQuiescent asserts that no lifecycle event is waiting anywhere: every
// train and publish the engine performed was awaited and accounted for by
// the mirror.
func (h *Harness) assertQuiescent() error {
	select {
	case ev := <-h.trainCh:
		return h.fail("quiescence", "unaccounted TrainDone for %s (res %+v, err %v) — the mirror missed a training round",
			ev.series, ev.res, ev.err)
	default:
	}
	select {
	case ev := <-h.pubCh:
		return h.fail("quiescence", "unaccounted PublishDone for %s (gen %d, err %v) — the mirror missed a publication",
			ev.series, ev.gen, ev.err)
	default:
	}
	for name, evs := range h.trainStash {
		if len(evs) > 0 {
			return h.fail("quiescence", "%d stashed TrainDone events for %s never claimed", len(evs), name)
		}
	}
	for name, evs := range h.pubStash {
		if len(evs) > 0 {
			return h.fail("quiescence", "%d stashed PublishDone events for %s never claimed", len(evs), name)
		}
	}
	return nil
}

// checkQuarantined asserts the two halves of the quarantine contract for one
// series: the name is retired from the catalog (an independent reader cannot
// load it), yet the damaged frames stay on disk as evidence — tombstoned
// segment records that Dump can still render, with the CRC failure visible.
func (h *Harness) checkQuarantined(name string) error {
	probe, err := tsdb.Open(h.dataDir)
	if err != nil {
		return err
	}
	defer probe.Close()
	if _, lerr := probe.Load(name); lerr == nil {
		return h.fail("wal", "series %s: still loads after quarantine", name)
	} else if errors.Is(lerr, tsdb.ErrCorrupt) {
		return h.fail("wal", "series %s: quarantine left the corrupt binding live (%v)", name, lerr)
	}
	stats, derr := tsdb.Dump(h.dataDir, io.Discard, tsdb.DumpOptions{Series: name})
	if derr != nil {
		return h.fail("wal", "series %s: dump after quarantine failed: %v", name, derr)
	}
	if stats.Records == 0 {
		return h.fail("wal", "series %s: quarantine dropped the damaged frames from disk", name)
	}
	if stats.CorruptFrames == 0 {
		return h.fail("wal", "series %s: quarantined evidence has no CRC-failed frame", name)
	}
	return nil
}

// checkWALs replays every series' log with an independent reader and
// compares it bit for bit against the mirror: values, labels, and the
// creation metadata that derives the (strictly monotonic) timestamps.
// Corrupt series must refuse to load; quarantined ones must stay retired
// with their damaged frames preserved.
func (h *Harness) checkWALs() error {
	probe, err := tsdb.Open(h.dataDir)
	if err != nil {
		return err
	}
	defer probe.Close()
	for _, name := range h.names {
		st := h.mirror[name]
		switch {
		case st.dead:
			if err := h.checkQuarantined(name); err != nil {
				return err
			}
		case st.corrupted:
			if _, lerr := probe.Load(name); !errors.Is(lerr, tsdb.ErrCorrupt) {
				return h.fail("wal", "series %s: corrupted log loaded without ErrCorrupt (err %v)", name, lerr)
			}
		default:
			loaded, lerr := probe.Load(name)
			if lerr != nil {
				return h.fail("wal", "series %s: log replay failed: %v", name, lerr)
			}
			if loaded.Meta.IntervalSeconds != int(st.spec.Profile.Interval/time.Second) {
				return h.fail("wal", "series %s: replayed interval %ds, created with %v", name, loaded.Meta.IntervalSeconds, st.spec.Profile.Interval)
			}
			if !loaded.Meta.Start.Equal(st.data.Series.Start) {
				return h.fail("wal", "series %s: replayed start %v, created with %v — derived timestamps would not be monotonic with the mirror's",
					name, loaded.Meta.Start, st.data.Series.Start)
			}
			if len(loaded.Values) != st.total {
				return h.fail("wal", "series %s: log replays %d points, mirror appended %d", name, len(loaded.Values), st.total)
			}
			for i, v := range loaded.Values {
				if math.Float64bits(v) != math.Float64bits(st.data.Series.Values[i]) {
					return h.fail("wal", "series %s: replayed value at %d is %v, mirror appended %v", name, i, v, st.data.Series.Values[i])
				}
			}
			if len(loaded.Labels) != len(st.labels) {
				return h.fail("wal", "series %s: log replays %d labels, mirror holds %d", name, len(loaded.Labels), len(st.labels))
			}
			for i, l := range loaded.Labels {
				if l != st.labels[i] {
					return h.fail("wal", "series %s: replayed label at %d is %v, mirror holds %v", name, i, l, st.labels[i])
				}
			}
			// The typed anomaly-class channel materializes exactly when a
			// typed label was issued (legacy byte streams stay legacy) and
			// then replays bit for bit against the mirror.
			if !st.typedSeen {
				if loaded.Types != nil {
					return h.fail("wal", "series %s: replay materialized a typed channel (%d entries) but no typed label was ever issued", name, len(loaded.Types))
				}
			} else {
				if len(loaded.Types) != st.total {
					return h.fail("wal", "series %s: replayed %d typed-class entries, mirror holds %d", name, len(loaded.Types), st.total)
				}
				for i, cl := range loaded.Types {
					if cl != st.types[i] {
						return h.fail("wal", "series %s: replayed anomaly class at %d is %d, mirror holds %d", name, i, cl, st.types[i])
					}
				}
			}
		}
	}
	return nil
}

// copyTree recursively copies a directory (regular files only — the WAL and
// registry write nothing else).
func copyTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := copyTree(s, d); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(s, d); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
