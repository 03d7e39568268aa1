package core

import (
	"fmt"

	"opprentice/internal/detectors"
	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/tree"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
)

// Monitor is the online detection path of Fig. 3(b): incoming points flow
// through the basic detectors (feature extraction) and the latest anomaly
// classifier, and the cThld turns the vote fraction into an alarm. It is
// built from labeled history with NewMonitor and then fed one point at a
// time; Retrain folds in newly labeled data by building a replacement
// monitor whose detectors continue the same stream.
type Monitor struct {
	dets   []detectors.Detector
	model  *forest.Forest
	cthld  float64
	pred   Predictor
	fcfg   forest.Config
	pref   stats.Preference
	points int
	filter *DurationFilter

	// dynamic marks a per-point predictor (EVT): finalize feeds it every
	// vote fraction and refreshes the threshold. False for EWMA, whose
	// threshold only moves at retrain — that path is bit-identical to the
	// pre-seam code.
	dynamic bool

	// typeModel, when non-nil, is the multi-class anomaly-type head trained
	// on the same feature matrix. Anomalous verdicts are classified; nil
	// leaves Verdict.Class at ClassNone.
	typeModel *forest.MultiClass

	// StepBatch scratch, grown on demand up to one block (stepBlock rows)
	// and reused across batches: a row-major feature matrix (rows ×
	// detectors) and a probability buffer. Never serialized; contents are
	// dead between calls.
	rowsBuf []float64
	probBuf []float64

	// Detector sandboxing: a configuration that panics is permanently
	// degraded — its feature becomes 0 ("no evidence") and it is never
	// stepped again — so one faulty configuration cannot take down the
	// online detection path.
	dead    []bool
	panics  int
	onPanic func(name string, recovered any)
}

// MonitorConfig configures NewMonitor. Zero values choose the paper's
// defaults.
type MonitorConfig struct {
	Preference stats.Preference
	Forest     forest.Config
	// EWMAAlpha smooths cThld updates across retrains (default 0.8).
	EWMAAlpha float64
	// Predictor selects the cThld prediction strategy (default PredictEWMA,
	// the paper's §4.5.2 predictor; PredictEVT is the POT/GPD dynamic one).
	Predictor PredictorKind
	// EVTQ pins the EVT predictor's target exceedance risk (0 < q < 1);
	// 0 selects auto-calibration: the risk is re-selected from a coarse
	// grid at every refit by the PC-Score of its alarms against the
	// labeled trailing window. Ignored for PredictEWMA.
	EVTQ float64
	// TypeLabels, when non-nil, holds one AnomalyClass code per history
	// point and trains the multi-class anomaly-type head alongside the
	// verdict forest. Must match the history length when set.
	TypeLabels []uint8
	// Folds for the initial cross-validated cThld (default 5; set
	// SkipInitialCV to start from 0.5 instead).
	Folds         int
	SkipInitialCV bool
	// MinDuration, when > 1, applies the §6 duration filter: an alarm is
	// raised only once MinDuration consecutive points classify anomalous.
	// Verdicts for withheld points are then delayed (see Verdict.Decided).
	MinDuration int
	// OnDetectorPanic, when set, is invoked every time a detector
	// configuration panics (during training extraction or online Step) and
	// is sandboxed. recovered is the panic value, or nil when the panic was
	// observed indirectly (a degraded extraction column). Callbacks run on
	// the goroutine that observed the panic and must be cheap.
	OnDetectorPanic func(name string, recovered any)
	// Cache, when set, makes training extraction incremental: the initial
	// extraction seeds the cache (cold) and every later Retrain against the
	// same cache extracts only the points appended since (see
	// ExtractIncremental).
	Cache *FeatureCache
}

// NewMonitor trains a monitor on labeled history: detectors are fitted and
// warmed over the history, a forest is trained on the extracted features,
// and the initial cThld comes from 5-fold cross-validation (§4.5.2). The
// detector instances end positioned after the last history point, so Step
// continues the stream seamlessly.
func NewMonitor(history *timeseries.Series, labels timeseries.Labels, dets []detectors.Detector, cfg MonitorConfig) (*Monitor, error) {
	if err := checkTrainable(history, labels, cfg.TypeLabels); err != nil {
		return nil, err
	}
	if cfg.Preference == (stats.Preference{}) {
		cfg.Preference = stats.Preference{Recall: 0.66, Precision: 0.66}
	}
	if cfg.Folds <= 0 {
		cfg.Folds = 5
	}
	feats, liveDets, err := ExtractIncremental(cfg.Cache, history, dets, ExtractConfig{})
	if err != nil {
		return nil, err
	}
	// ImputedFull materializes no second matrix: without a cache the raw
	// columns are imputed in place (this extraction is private to us); with
	// one, the cache's columns are NaN-free already. One sort of them serves
	// every fit of the round: the main forest, the cross-validation folds,
	// EVT's held-out halves and the type heads.
	ps := tree.Presort(feats.ImputedFull())
	model := forest.TrainOn(ps, labels, 0, 0, cfg.Forest)

	cthld := 0.5
	if !cfg.SkipInitialCV {
		cthld = CrossValidateCThld(ps, labels, cfg.Folds, 1000, cfg.Forest, cfg.Preference)
	}
	pred := newPredictor(cfg.Predictor, cfg.EWMAAlpha, cfg.EVTQ, cfg.Preference)
	pred.Seed(cthld)
	if pred.Kind() == PredictEVT {
		// Initial POT fit over held-out vote fractions: each half of the
		// training window is scored by a forest trained on the other half.
		// In-sample scores would not do — a forest scores its own normal
		// training points near 0, understating the served score distribution
		// and biasing the tail (and so the threshold) far too low.
		pred.Refit(heldOutScores(model, ps, labels, cfg.Forest), labels)
	}
	m := &Monitor{
		dets:    liveDets,
		model:   model,
		cthld:   pred.Predict(),
		pred:    pred,
		dynamic: pred.Kind() != PredictEWMA,
		fcfg:    cfg.Forest,
		pref:    cfg.Preference,
		points:  history.Len(),
		dead:    make([]bool, len(dets)),
		onPanic: cfg.OnDetectorPanic,
	}
	if cfg.TypeLabels != nil {
		m.typeModel = forest.TrainMulti(ps, cfg.TypeLabels, cfg.Forest)
	}
	if cfg.MinDuration > 1 {
		m.filter = &DurationFilter{MinPoints: cfg.MinDuration}
	}
	// Configurations that panicked during training extraction are the same
	// live instances Step would call: mark them degraded up front.
	m.markDegraded(feats.Degraded)
	return m, nil
}

// checkTrainable refuses history no model can be trained on — mismatched
// label lengths, or only one class labeled — before NewMonitor or Retrain
// pays for the 133-configuration extraction (and seeds a cache) on its behalf.
func checkTrainable(history *timeseries.Series, labels timeseries.Labels, types []uint8) error {
	if len(labels) != history.Len() {
		return fmt.Errorf("core: %d labels for %d points", len(labels), history.Len())
	}
	if types != nil && len(types) != history.Len() {
		return fmt.Errorf("core: %d type labels for %d points", len(types), history.Len())
	}
	if !bothClasses(labels) {
		return fmt.Errorf("core: history must contain labeled anomalies and normal data")
	}
	return nil
}

// markDegraded flags the named configurations as dead and accounts for their
// panics.
func (m *Monitor) markDegraded(names []string) {
	for _, name := range names {
		for j, d := range m.dets {
			if d.Name() == name && !m.dead[j] {
				m.kill(j, nil)
			}
		}
	}
}

// kill permanently degrades configuration j — it is never stepped again and
// its feature reads 0 — counts the panic and reports it with the recovered
// value (nil when the panic was observed indirectly).
func (m *Monitor) kill(j int, recovered any) {
	m.dead[j] = true
	m.panics++
	if m.onPanic != nil {
		m.onPanic(m.dets[j].Name(), recovered)
	}
}

// Verdict is the monitor's judgment of one point.
type Verdict struct {
	// Probability is the forest vote fraction.
	Probability float64
	// Anomalous is Probability ≥ the current cThld; when a duration filter
	// is configured, it is the filtered alarm decision instead.
	Anomalous bool
	// CThld is the threshold applied.
	CThld float64
	// Decided is how many points this verdict finalizes: always 1 without a
	// duration filter; with one, 0 while a short anomalous run is pending
	// and > 1 when a pending run resolves.
	Decided int
	// Class is the anomaly-type head's prediction for an anomalous verdict
	// (ClassNone when the point is normal, the head abstains, or no head is
	// trained).
	Class AnomalyClass
}

// Step consumes the next incoming point and classifies it online: a
// StepBatch of one.
func (m *Monitor) Step(v float64) Verdict {
	vals := [1]float64{v}
	var out [1]Verdict
	return m.StepBatch(vals[:], out[:0])[0]
}

// stepBlock is how many points StepBatch carries through the battery and the
// forest at a time: it bounds the scratch at stepBlock × detectors cells
// (272 KB for the 133 configurations) whatever the batch length.
const stepBlock = 256

// StepBatch consumes a batch of incoming points and appends one verdict per
// point to out, returning the extended slice. The batch is cut into blocks of
// stepBlock points; within a block the battery runs detector-major — each
// live configuration is stepped over the block's values by one sandboxed
// stepColumn call that fills its column of the row-major scratch — which is
// the same computation as stepping every configuration point by point,
// because a detector reads nothing but its own state and the input. A
// detector that panics is sandboxed: its feature reads 0 ("no evidence of
// anomaly") for the failing point and all subsequent ones, mid-batch
// included, and the verdicts are still produced from the remaining
// configurations. The forest then runs once over the block. The verdict
// sequence does not depend on how a stream is split into batches or blocks —
// detector stepping never depends on forest output, and the duration filter
// advances point by point.
func (m *Monitor) StepBatch(values []float64, out []Verdict) []Verdict {
	d := len(m.dets)
	for len(values) > 0 {
		n := min(len(values), stepBlock)
		block := values[:n]
		values = values[n:]
		if cap(m.rowsBuf) < n*d {
			m.rowsBuf = make([]float64, n*d)
		}
		rows := m.rowsBuf[:n*d]
		for j, det := range m.dets {
			k := 0 // rows [k, n) of column j read 0
			if !m.dead[j] {
				var r any
				if k, r = stepColumn(det, false, nil, block, rows[j:], d, 0); r != nil {
					m.kill(j, r)
				}
			}
			for ; k < n; k++ {
				rows[k*d+j] = 0
			}
		}
		m.points += n
		if cap(m.probBuf) < n {
			m.probBuf = make([]float64, n)
		}
		probs := m.probBuf[:n]
		m.model.ProbRowsInto(rows, d, probs)
		for k, p := range probs {
			out = append(out, m.finalize(p, rows[k*d:(k+1)*d]))
		}
	}
	return out
}

// finalize turns a vote fraction into a Verdict, applying the cThld, the
// optional duration filter, and the optional anomaly-type head (row is the
// point's feature row, consulted only for anomalous verdicts). A dynamic
// predictor then absorbs the score and refreshes the threshold for the next
// point — the point is judged against the threshold established before it
// arrived, streaming-POT style.
func (m *Monitor) finalize(p float64, row []float64) Verdict {
	verdict := Verdict{Probability: p, Anomalous: p >= m.cthld, CThld: m.cthld, Decided: 1}
	if m.filter != nil {
		decisions := m.filter.Step(verdict.Anomalous)
		verdict.Anomalous = false
		verdict.Decided = 0
		for _, d := range decisions {
			verdict.Decided += d.Count
			verdict.Anomalous = verdict.Anomalous || d.Anomalous
		}
	}
	if verdict.Anomalous && m.typeModel != nil {
		c, _ := m.typeModel.PredictRow(row)
		verdict.Class = AnomalyClass(c)
	}
	if m.dynamic {
		m.pred.ObserveScore(p)
		m.cthld = m.pred.Predict()
	}
	return verdict
}

// CThld returns the threshold currently in force.
func (m *Monitor) CThld() float64 { return m.cthld }

// PredictorKind reports the cThld prediction strategy in use.
func (m *Monitor) PredictorKind() PredictorKind { return m.pred.Kind() }

// HasTypeModel reports whether an anomaly-type head is trained.
func (m *Monitor) HasTypeModel() bool { return m.typeModel != nil }

// DetectorPanics returns how many detector panics this monitor has sandboxed
// (training extraction and online Steps combined). Not safe for concurrent
// use with Step; serialize as you would Step itself.
func (m *Monitor) DetectorPanics() int { return m.panics }

// DegradedDetectors returns how many configurations are currently degraded
// (dead) and contributing no features.
func (m *Monitor) DegradedDetectors() int {
	n := 0
	for _, d := range m.dead {
		if d {
			n++
		}
	}
	return n
}

// Retrain builds a replacement monitor from a snapshot of the full labeled
// history (incremental retraining, §3.2) without mutating m. The returned
// monitor carries m's tuning forward — preference, forest configuration, the
// cThld predictor's state (cloned, with the snapshot's most recent week
// folded into it), duration-filter configuration and panic callback — but
// has a freshly trained model and the detector set dets fitted over the
// snapshot and positioned after its last point. Past the 8-week fit cap that
// is exactly where m's own detectors stand once they have been stepped over
// the same points, so swapping the monitors never disturbs the stream; below
// the cap a Trainable detector (ARIMA) is re-fitted on the longer window.
//
// types, when non-nil, holds one AnomalyClass code per history point and the
// returned monitor carries a freshly trained multi-class type head. A nil or
// untrainable types slice (no typed anomalies yet) carries m's existing type
// head forward unchanged, so typing never regresses across a retrain that
// gained no new typed windows.
//
// With a non-nil cache only the points appended since the cache's last
// extraction are stepped, and the returned monitor's detector set is built
// from the cache's advanced checkpoints instead of replaying the whole
// history (see ExtractIncremental); a nil cache extracts cold.
//
// It is the training half of an asynchronous retrain: while it runs, the
// live monitor keeps Stepping newly arriving points; the caller then replays
// the points that arrived mid-train through the returned monitor (to advance
// its detectors and duration filter to the stream head) and atomically swaps
// it in. Concurrent Step on m is safe — Retrain only reads fields Step never
// writes — but concurrent Retrain calls on the same monitor, or against the
// same cache, must be serialized by the caller (the engine's per-series
// train mutex does).
func (m *Monitor) Retrain(history *timeseries.Series, labels timeseries.Labels, types []uint8, dets []detectors.Detector, cache *FeatureCache) (*Monitor, error) {
	if err := checkTrainable(history, labels, types); err != nil {
		return nil, err
	}
	feats, liveDets, err := ExtractIncremental(cache, history, dets, ExtractConfig{})
	if err != nil {
		return nil, err
	}
	cols := feats.ImputedFull()
	ps := tree.Presort(cols) // shared by the verdict forest and the type heads
	model := forest.TrainOn(ps, labels, 0, 0, m.fcfg)

	// Threshold update into a cloned predictor so the live monitor is
	// untouched until the swap: the EVT clone re-fits its tail on the
	// trailing week scored by the live (outgoing) model — out-of-sample
	// vote fractions, the distribution served online; the incoming model's
	// in-sample scores would sit near 0 on normal points and collapse the
	// tail — while the EWMA clone observes the week's best cThld under the
	// fresh model (anomaly-free weeks carry no cThld information and are
	// skipped).
	pred := m.pred.Clone()
	ppw, err := history.PointsPerWeek()
	if err != nil {
		return nil, err
	}
	if m.dynamic {
		lo := history.Len() - ppw
		if lo < 0 {
			lo = 0
		}
		pred.Refit(m.model.ProbAll(featsSlice(cols, lo, history.Len())), labels[lo:])
	} else if lo := history.Len() - ppw; lo > 0 && bothClasses(labels[lo:]) {
		scores := model.ProbAll(featsSlice(cols, lo, history.Len()))
		best, _ := stats.BestByPCScore(stats.PRCurve(scores, labels[lo:]), m.pref)
		pred.Observe(best.Threshold)
	}
	n := &Monitor{
		dets:      liveDets,
		model:     model,
		cthld:     pred.Predict(),
		pred:      pred,
		dynamic:   m.dynamic,
		typeModel: m.typeModel,
		fcfg:      m.fcfg,
		pref:      m.pref,
		points:    history.Len(),
		dead:      make([]bool, len(liveDets)),
		onPanic:   m.onPanic,
	}
	if types != nil {
		if tm := forest.TrainMulti(ps, types, m.fcfg); tm != nil {
			n.typeModel = tm
		}
	}
	if m.filter != nil {
		n.filter = &DurationFilter{MinPoints: m.filter.MinPoints}
	}
	n.markDegraded(feats.Degraded)
	return n, nil
}

// heldOutScores scores the training window out-of-sample for the initial POT
// fit: the window is cut in half and each half is scored by a forest trained
// on the other half, approximating the score distribution a deployed model
// produces on data it was not trained on. A half whose complement lacks both
// label classes (untrainable) falls back to the in-sample model for those
// rows, keeping the output aligned with labels.
func heldOutScores(model *forest.Forest, ps *tree.Presorted, labels timeseries.Labels, fcfg forest.Config) []float64 {
	n := len(labels)
	out := make([]float64, n)
	score := func(lo, hi int) {
		if hi <= lo {
			return
		}
		f := model
		if bothClasses(labels[:lo], labels[hi:]) {
			f = forest.TrainOn(ps, labels, lo, hi, fcfg)
		}
		copy(out[lo:hi], f.ProbAll(featsSlice(ps.Cols(), lo, hi)))
	}
	score(0, n/2)
	score(n/2, n)
	return out
}

// featsSlice slices a column-major matrix by rows.
func featsSlice(cols [][]float64, lo, hi int) [][]float64 {
	out := make([][]float64, len(cols))
	for j, col := range cols {
		out[j] = col[lo:hi]
	}
	return out
}
