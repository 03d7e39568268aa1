package engine

import (
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"

	"opprentice/internal/alerting"
)

// metricSet is the one declaration of every engine-wide metric. A field is a
// metric: its name is the Go identifier update sites and Counters readers
// use, its tags are the exposition —
//
//	metric    family name (HELP/TYPE header); a tagged field without it is a
//	          further sample of the family declared above it
//	label     the sample's one k=v label
//	help      HELP text
//	kind      "gauge"; a counter otherwise
//	decimals  digits rendered after the point; an integer field stores that
//	          many fixed-point digits (decimals:"3" = thousandths)
//	when      per-series only: the bool field that must hold for the sample
//	          to be exported
//	then      "transport": the transport's own families follow this one
//
// — and field order is exposition order. An untagged field is snapshot-only.
// The engine instantiates the set twice: metricSet[atomic.Int64] is the live
// storage (e.met.PointsIngested.Add(n), once per batch or event, never per
// point) and metricSet[int64], Counters, its snapshot. DESIGN.md's "Metrics"
// table says where each one is incremented.
type metricSet[T any] struct {
	PointsIngested  T `metric:"opprenticed_points_ingested_total" help:"Points appended across all series."`
	AlarmsRaised    T `metric:"opprenticed_alarms_raised_total" help:"Anomalous verdicts across all series."`
	TrainingsRun    T `metric:"opprenticed_trainings_total" help:"Classifier (re)trainings across all series." then:"transport"`
	DetectorPanics  T `metric:"opprenticed_detector_panics_total" help:"Detector configuration panics sandboxed into degraded features."`
	WALQuarantined  T `metric:"opprenticed_wal_quarantined_total" help:"Corrupt series logs quarantined during restore."`
	WALAppendErrors T `metric:"opprenticed_wal_append_errors_total" help:"Durable appends that failed; the affected points are live in memory only."`
	TrainingMillis  T `metric:"opprenticed_training_seconds_total" help:"Cumulative training wall time." decimals:"3"`
	// A completed round's wall time by stage (core.TrainStages), in µs.
	TrainExtractMicros   T `metric:"opprenticed_training_stage_seconds_total" label:"stage=extract" help:"Cumulative wall time of completed training rounds, by stage." decimals:"6"`
	TrainPresortMicros   T `label:"stage=presort"`
	TrainFitMicros       T `label:"stage=fit"`
	TrainThresholdMicros T `label:"stage=threshold"`

	// Model registry (all zero without one). ModelRestoreWarm/Cold split the
	// last Restore pass by mode; ModelChecksumFailures is read off the
	// registry at snapshot time.
	ModelPublishes        T `metric:"opprenticed_model_publish_total" help:"Model artifacts published to the registry."`
	ModelPublishErrors    T `metric:"opprenticed_model_publish_errors_total" help:"Model artifact publications that failed."`
	ModelRestoreWarm      T `metric:"opprenticed_model_restore_total" label:"mode=warm" help:"Series restored at startup, by mode (warm = published artifact, cold = synchronous retrain)."`
	ModelRestoreCold      T `label:"mode=cold"`
	ModelChecksumFailures T `metric:"opprenticed_model_checksum_failures_total" help:"Model artifacts or manifests that failed validation and were quarantined."`
	ModelRollbacks        T `metric:"opprenticed_model_rollbacks_total" help:"Explicit model rollbacks."`
	RestoreMillis         T `metric:"opprenticed_restore_seconds" kind:"gauge" help:"Wall time of the last restore pass." decimals:"3"`

	// Overload and supervision (the resilience layer). The two gauges are
	// counted off the series at snapshot time.
	IngestSheds       T `metric:"opprenticed_ingest_sheds_total" help:"Point batches shed whole by admission control (HTTP 429)."`
	DegradedEntered   T `metric:"opprenticed_degraded_entered_total" help:"Series transitions into degraded (threshold-only) serving."`
	DegradedRecovered T `metric:"opprenticed_degraded_recovered_total" help:"Series recoveries out of degraded serving."`
	WALBufferedPoints T `metric:"opprenticed_wal_buffered_points_total" help:"Points written to the WAL without awaiting the commit while their series was degraded."`
	WALLostPoints     T `metric:"opprenticed_wal_lost_points_total" help:"Points dropped from the log because the store could not take them or the series had too many uncommitted points in flight."`
	TrainStalls       T `metric:"opprenticed_train_stalls_total" help:"Training/publish rounds abandoned by the watchdog."`
	TrainRetries      T `metric:"opprenticed_train_retries_total" help:"Watchdog-driven retrain retries."`
	SeriesQuarantined T `metric:"opprenticed_series_quarantined_total" help:"Series whose training was quarantined after repeated failures."`
	WorkerPanics      T `metric:"opprenticed_worker_panics_total" help:"Recovered panics in supervised background workers."`
	DegradedSeries    T `metric:"opprenticed_series_degraded" kind:"gauge" help:"Series currently in degraded (threshold-only) serving."`
	QuarantinedSeries T `metric:"opprenticed_series_quarantined" kind:"gauge" help:"Series whose training is currently quarantined."`

	// Incremental feature-extraction cache, read off the shared budget at
	// snapshot time. Cold ÷ incremental (point × configuration) computations
	// is the retrain amortization actually achieved.
	ExtractPointsCold        T `metric:"opprenticed_extract_points_total" label:"mode=cold" help:"Point-by-configuration severity computations during training extraction, by mode."`
	ExtractPointsIncremental T `label:"mode=incremental"`
	ExtractCacheBytes        T `metric:"opprenticed_extract_cache_bytes" kind:"gauge" help:"Current feature-extraction cache footprint across all series."`
	ExtractCacheCapBytes     T
	ExtractCacheInvalidated  T `metric:"opprenticed_extract_cache_invalidations_total" help:"Whole-cache invalidations (prefix mismatch, configuration change, cap overflow)."`

	// Active learning (see internal/active).
	QueriesAnswered T `metric:"opprenticed_queries_answered_total" help:"Label queries answered via POST /v1/queries/{series}/answer."`
	DriftRetrains   T `metric:"opprenticed_drift_retrains_total" help:"Retrains armed by the concept-drift detector before the retrain tick."`

	// Webhook delivery, summed over the per-series pipelines at snapshot time.
	NotifyDelivered T `metric:"opprenticed_notify_delivered_total" help:"Incident events acknowledged by notifiers."`
	NotifyRetried   T `metric:"opprenticed_notify_retries_total" help:"Incident delivery attempts beyond each event's first."`
	NotifyDropped   T `metric:"opprenticed_notify_dropped_total" help:"Incident events dropped (queue full, max attempts, shutdown)."`
}

// Counters is a point-in-time snapshot of the engine-wide metrics.
type Counters = metricSet[int64]

// SeriesMetrics is one series' gauge snapshot, declared like metricSet: each
// tagged field is one per-series family, labelled series="<name>".
type SeriesMetrics struct {
	Name              string
	Points            int     `metric:"opprenticed_series_points" kind:"gauge" help:"Points stored per series."`
	LabeledWindows    int     `metric:"opprenticed_series_labeled_windows" kind:"gauge" help:"Labeled anomalous windows per series."`
	CThld             float64 `metric:"opprenticed_series_cthld" kind:"gauge" help:"Current classification threshold per trained series." decimals:"4" when:"Trained"`
	DegradedDetectors int     `metric:"opprenticed_series_degraded_detectors" kind:"gauge" help:"Detector configurations currently sandboxed (dead) per trained series." when:"Trained"`
	// PendingQueries is the label-query queue depth; DriftScore the PSI of
	// the last completed drift comparison window.
	PendingQueries int     `metric:"opprenticed_query_queue_depth" kind:"gauge" help:"Pending label queries per series."`
	DriftScore     float64 `metric:"opprenticed_drift_score" kind:"gauge" help:"PSI of the last completed drift comparison window per series." decimals:"4"`

	Trained, Degraded, Quarantined bool
	Notify                         alerting.Stats
}

// Family is one exposition family: a HELP/TYPE header and its samples.
type Family struct {
	Name, Help string
	Gauge      bool // TYPE gauge; a counter otherwise
	Decimals   int  // digits rendered after the point
	Samples    []Sample
}

// Sample is one exposition line of its family.
type Sample struct {
	Field  string // Go identifier of the declaring field; in-process readers key on it
	Labels string // rendered label set, e.g. `{mode="warm"}`; empty for none
	Value  float64
}

// labelEscaper escapes exactly what the text exposition format defines for a
// label value; every other byte, control characters included, stands as is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func renderLabel(k, v string) string { return "{" + k + `="` + labelEscaper.Replace(v) + `"}` }

// field is one exported field of a declaration with its tags read: labels
// is the rendered label tag, opens the family the field declares (without
// samples; no Name when it continues the one above), gate the index of its
// `when` field.
type field struct {
	index        int
	name, labels string
	opens        Family
	gate         []int
	transport    bool
}

// fieldsOf reads t's tags in field order, leaving snapshot-only fields out.
func fieldsOf(t reflect.Type) []field {
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		f := field{index: i, name: sf.Name, transport: sf.Tag.Get("then") == "transport"}
		if k, v, ok := strings.Cut(sf.Tag.Get("label"), "="); ok {
			f.labels = renderLabel(k, v)
		}
		if name := sf.Tag.Get("metric"); name != "" {
			decimals, _ := strconv.Atoi(sf.Tag.Get("decimals")) // absent reads as 0
			f.opens = Family{Name: name, Help: sf.Tag.Get("help"), Gauge: sf.Tag.Get("kind") == "gauge", Decimals: decimals}
		} else if f.labels == "" {
			continue // snapshot-only
		}
		if gate, ok := t.FieldByName(sf.Tag.Get("when")); ok {
			f.gate = gate.Index
		}
		fields = append(fields, f)
	}
	return fields
}

// The field tables of the two declarations.
var (
	counterFields = fieldsOf(reflect.TypeFor[Counters]())
	seriesFields  = fieldsOf(reflect.TypeFor[SeriesMetrics]())
)

// families is the one loop from declarations to samples: it walks a
// declaration's fields in order and reads each off every row (one row of
// engine-wide metrics, or one row per series, labelled rowLabels[j] — no
// per-series field carries a label of its own) into the family the field
// declares or continues. A declaration the tag grammar does not cover shows
// up in the scrape, which TestMetricsGolden and TestMetricsTable pin.
func families(fields []field, rows []reflect.Value, rowLabels []string, transport []Family) []Family {
	fams := make([]Family, 0, len(fields)+len(transport))
	for _, f := range fields {
		if f.opens.Name != "" {
			fams = append(fams, f.opens)
			fams[len(fams)-1].Samples = make([]Sample, 0, len(rows))
		}
		fam := &fams[len(fams)-1]
		for j, row := range rows {
			if f.gate != nil && !row.FieldByIndex(f.gate).Bool() {
				continue
			}
			s := Sample{Field: f.name, Labels: f.labels + rowLabels[j]}
			if v := row.Field(f.index); v.CanInt() {
				s.Value = float64(v.Int()) / math.Pow10(fam.Decimals)
			} else {
				s.Value = v.Float()
			}
			fam.Samples = append(fam.Samples, s)
		}
		if f.transport {
			fams = append(fams, transport...)
		}
	}
	return fams
}

// snapshot reads every engine-wide metric and, in a pass that takes each
// series' mutex once, the per-series gauges sorted by name; the fleet gauges
// and notify totals of the former are counted off the latter.
func (e *Engine) snapshot() (Counters, []SeriesMetrics) {
	var c Counters
	live, snap := reflect.ValueOf(&e.met).Elem(), reflect.ValueOf(&c).Elem()
	for i := 0; i < snap.NumField(); i++ {
		snap.Field(i).SetInt(live.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	if e.models != nil {
		c.ModelChecksumFailures = e.models.Stats().ChecksumFailures
	}
	cs := e.cacheBudget.Stats()
	c.ExtractPointsCold = cs.ColdPoints
	c.ExtractPointsIncremental = cs.IncrementalPoints
	c.ExtractCacheBytes = cs.Bytes
	c.ExtractCacheCapBytes = cs.CapBytes
	c.ExtractCacheInvalidated = cs.Invalidations
	ms := e.all()
	series := make([]SeriesMetrics, len(ms))
	for i, m := range ms {
		m.mu.Lock()
		sm := m.gauges()
		m.mu.Unlock()
		if sm.Degraded {
			c.DegradedSeries++
		}
		if sm.Quarantined {
			c.QuarantinedSeries++
		}
		c.NotifyDelivered += sm.Notify.Delivered
		c.NotifyRetried += sm.Notify.Retried
		c.NotifyDropped += sm.Notify.Dropped
		series[i] = sm
	}
	return c, series
}

// gauges is the one per-series read behind both the exposition and the
// dashboard (caller holds m.mu).
func (m *managed) gauges() SeriesMetrics {
	sm := SeriesMetrics{
		Name:           m.name,
		Points:         m.series.Len(),
		LabeledWindows: len(m.labels.Windows()),
		Trained:        m.monitor != nil,
		Degraded:       m.degraded,
		Quarantined:    m.quarantined.Load(),
		PendingQueries: m.active.Depth(),
		DriftScore:     m.active.DriftScore(),
	}
	if sm.Trained {
		sm.CThld = m.monitor.CThld()
		sm.DegradedDetectors = m.monitor.DegradedDetectors()
	}
	if m.pipeline != nil {
		sm.Notify = m.pipeline.Stats()
	}
	return sm
}

// Counters returns the current engine-wide metrics. The fleet gauges and
// notify totals are read off the series, each locked briefly.
func (e *Engine) Counters() Counters {
	c, _ := e.snapshot()
	return c
}

// Metrics returns everything the daemon exports, in exposition order: the
// engine-wide families, with the transport's own spliced in where metricSet
// places them, then one family per SeriesMetrics gauge with a sample per
// series. It is the list /v1/metrics renders and the simulation checks.
func (e *Engine) Metrics(transport ...Family) []Family {
	c, series := e.snapshot()
	rows, labels := make([]reflect.Value, len(series)), make([]string, len(series))
	for i := range series {
		rows[i], labels[i] = reflect.ValueOf(&series[i]).Elem(), renderLabel("series", series[i].Name)
	}
	return append(families(counterFields, []reflect.Value{reflect.ValueOf(c)}, []string{""}, transport),
		families(seriesFields, rows, labels, nil)...)
}

// WriteMetrics renders families in the Prometheus text exposition format, one
// write per family.
func WriteMetrics(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		kind := "counter"
		if f.Gauge {
			kind = "gauge"
		}
		b = append(b[:0], "# HELP "+f.Name+" "+f.Help+"\n# TYPE "+f.Name+" "+kind+"\n"...)
		for _, s := range f.Samples {
			b = append(append(append(b, f.Name...), s.Labels...), ' ')
			b = append(strconv.AppendFloat(b, s.Value, 'f', f.Decimals, 64), '\n')
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Inspection is the dashboard's view of one series: the headline gauges plus
// copies of the trailing values and most recent alarms.
type Inspection struct {
	SeriesMetrics
	Recent     []float64
	LastAlarms []Alarm
}

// Inspect returns a dashboard snapshot of every series, sorted by name, each
// with up to lastValues trailing points and lastAlarms recent alarms.
func (e *Engine) Inspect(lastValues, lastAlarms int) []Inspection {
	ms := e.all()
	out := make([]Inspection, len(ms))
	for i, m := range ms {
		m.mu.Lock()
		lo := max(m.series.Len()-lastValues, 0)
		out[i] = Inspection{m.gauges(), append([]float64(nil), m.series.Values[lo:]...), m.alarms.last(lastAlarms)}
		m.mu.Unlock()
	}
	return out
}
