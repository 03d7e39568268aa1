// Package opprentice is a from-scratch Go implementation of "Opprentice:
// Towards Practical and Automatic Anomaly Detection Through Machine
// Learning" (Liu et al., IMC 2015).
//
// Opprentice removes the detector-selection and threshold-tuning burden from
// KPI anomaly detection: operators only label historical anomalies with a
// convenient tool, while 14 classic detectors in 133 parameter
// configurations act as feature extractors for a random forest that learns
// the operators' notion of "anomalous" and is thresholded to satisfy an
// accuracy preference such as "recall ≥ 0.66 and precision ≥ 0.66".
//
// The typical lifecycle:
//
//	dets, _ := opprentice.Detectors(time.Minute)
//	mon, _ := opprentice.NewMonitor(history, labels, dets, opprentice.MonitorConfig{})
//	for v := range incoming {
//		if mon.Step(v).Anomalous {
//			alert()
//		}
//	}
//	// weekly: label the new data, then swap in the replacement monitor
//	// (nil: no anomaly-type labels, no feature cache)
//	mon, _ = mon.Retrain(fullHistory, fullLabels, nil, freshDets, nil)
//
// For offline evaluation and the paper's experiments, see Run, RunExperiment
// and the cmd/evalbench tool.
package opprentice

import (
	"time"

	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/experiments"
	"opprentice/internal/kpigen"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
)

// Core data types.
type (
	// Series is a fixed-interval KPI time series.
	Series = timeseries.Series
	// Labels marks each point of a series anomalous or not.
	Labels = timeseries.Labels
	// Window is a half-open range of anomalous points.
	Window = timeseries.Window
	// Preference is the operators' accuracy preference
	// "recall ≥ Recall and precision ≥ Precision".
	Preference = stats.Preference
	// Detector is a streaming basic detector acting as a feature extractor.
	Detector = detectors.Detector
	// Features is the extracted severity matrix.
	Features = core.Features
	// Monitor is the online detection loop.
	Monitor = core.Monitor
	// MonitorConfig configures NewMonitor.
	MonitorConfig = core.MonitorConfig
	// Verdict is the monitor's judgment of one point.
	Verdict = core.Verdict
	// Config parameterizes an offline Run.
	Config = core.Config
	// Result is an offline Run's weekly outcome.
	Result = core.Result
)

// NewSeries returns an empty series with the given name, origin and
// interval.
func NewSeries(name string, start time.Time, interval time.Duration) *Series {
	return timeseries.New(name, start, interval)
}

// Detectors builds the paper's 133 detector configurations (Table 3) for a
// series with the given sampling interval.
func Detectors(interval time.Duration) ([]Detector, error) {
	return detectors.Registry(interval)
}

// NewMonitor trains an online monitor on labeled history; see core.Monitor.
func NewMonitor(history *Series, labels Labels, dets []Detector, cfg MonitorConfig) (*Monitor, error) {
	return core.NewMonitor(history, labels, dets, cfg)
}

// Extract runs all detector configurations over a series and returns the
// severity matrix used for training and evaluation.
func Extract(s *Series, dets []Detector) (*Features, error) {
	return core.Extract(s, dets, core.ExtractConfig{})
}

// Run executes the full offline Opprentice loop — weekly incremental
// retraining, oracle and predicted cThlds — over an extracted feature
// matrix. ppw is the series' points per week.
func Run(f *Features, labels Labels, ppw int, cfg Config) (*Result, error) {
	return core.Run(f, labels, ppw, cfg)
}

// Experiment identifiers accepted by RunExperiment; see DESIGN.md for the
// per-experiment index.
func Experiments() []string {
	regs := experiments.Registry()
	out := make([]string, len(regs))
	for i, m := range regs {
		out[i] = m.ID
	}
	return out
}

// RunExperiment regenerates one table or figure of the paper's evaluation
// (e.g. "F9", "T4") and returns its printable tables.
func RunExperiment(id string, opts experiments.Options) ([]*experiments.Table, error) {
	m, ok := experiments.Find(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return m.Run(opts)
}

// UnknownExperimentError reports a RunExperiment id that matches no
// registered experiment.
type UnknownExperimentError struct{ ID string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "opprentice: unknown experiment " + e.ID
}

// SyntheticKPI generates one of the paper's three case-study KPIs ("pv",
// "sr", "srt") with ground-truth labels, at kpigen scales "small", "medium"
// or "full".
func SyntheticKPI(name string, scale kpigen.Scale, seed int64) (*Series, Labels, error) {
	for _, p := range kpigen.Profiles(scale) {
		if p.Name == name {
			d := kpigen.Generate(p, seed)
			return d.Series, d.Labels, nil
		}
	}
	return nil, nil, &UnknownKPIError{Name: name}
}

// UnknownKPIError reports a SyntheticKPI name that matches no profile.
type UnknownKPIError struct{ Name string }

// Error implements error.
func (e *UnknownKPIError) Error() string {
	return "opprentice: unknown synthetic KPI " + e.Name + " (want pv, sr or srt)"
}
