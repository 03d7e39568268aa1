package main

import (
	"fmt"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/kpigen"
	"opprentice/internal/service"
	"opprentice/internal/timeseries"
)

// Common inputs of every workload: hourly series with 9 labelled weeks of
// history and a 20-tree forest, the three KPI shapes of the paper assigned
// round-robin by series index.
const (
	historyWeeks = 9
	weekPoints   = 7 * 24
	historyLen   = historyWeeks * weekPoints // 1512
	forestTrees  = 20
	// maxRetrainRounds bounds how many extra labelled weeks a series carries
	// beyond its history; every shape uses at most this many retrain rounds.
	maxRetrainRounds = 4
)

// seriesInput is everything the harness ever sends for one series. It is a
// pure function of (seed, index): the daemon receives only these values,
// never the seed.
type seriesInput struct {
	name    string
	start   time.Time
	history []float64
	// labels are the anomalous windows of the history, in series indices.
	labels []service.LabelWindow
	// weeks[r] is the labelled week streamed before retrain round r; its
	// windows are relative to the first point of that week.
	weeks []labelledWeek
	// live is a second generation of the same profile, cycled, that feeds
	// the stream, scrape and backfill phases.
	live []float64
}

type labelledWeek struct {
	values  []float64
	windows []service.LabelWindow
}

// genSeries builds the inputs of series idx for the given benchmark seed.
func genSeries(seed int64, idx int) seriesInput {
	profiles := [...]func(kpigen.Scale) kpigen.Profile{kpigen.PV, kpigen.SR, kpigen.SRT}
	p := profiles[idx%len(profiles)](kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = historyWeeks + maxRetrainRounds
	base := seed*1_000_003 + int64(idx)*2
	d := kpigen.Generate(p, base)

	in := seriesInput{
		name:    fmt.Sprintf("%s-%03d", p.Name, idx),
		start:   d.Series.Start,
		history: d.Series.Values[:historyLen],
		labels:  windowsIn(d.Labels, 0, historyLen),
		live:    kpigen.Generate(p, base+1).Series.Values,
	}
	for r := 0; r < maxRetrainRounds; r++ {
		lo := historyLen + r*weekPoints
		in.weeks = append(in.weeks, labelledWeek{
			values:  d.Series.Values[lo : lo+weekPoints],
			windows: windowsIn(d.Labels, lo, lo+weekPoints),
		})
	}
	return in
}

// config is the series' configuration as the engine takes it: hourly, a
// 20-tree forest, everything else default.
func (in seriesInput) config() engine.SeriesConfig {
	return engine.SeriesConfig{IntervalSeconds: 3600, Start: in.start, Trees: forestTrees}
}

// createRequest is the same configuration as the service takes it.
func (in seriesInput) createRequest() service.CreateRequest {
	return service.CreateRequest{IntervalSeconds: 3600, Start: in.start, Trees: forestTrees}
}

// series returns values as a series of this input's name, start and
// interval.
func (in seriesInput) series(values []float64) *timeseries.Series {
	s := timeseries.New(in.name, in.start, time.Hour)
	s.Values = values
	return s
}

// windowsIn returns the anomalous windows of labels[lo:hi], relative to lo.
func windowsIn(labels timeseries.Labels, lo, hi int) []service.LabelWindow {
	var out []service.LabelWindow
	for _, w := range labels[lo:hi].Windows() {
		out = append(out, service.LabelWindow{Start: w.Start, End: w.End, Anomalous: true})
	}
	return out
}

// shifted returns the windows moved by off points, for a week that lands at
// series index off.
func shifted(ws []service.LabelWindow, off int) []service.LabelWindow {
	out := make([]service.LabelWindow, len(ws))
	for i, w := range ws {
		out[i] = service.LabelWindow{Start: w.Start + off, End: w.End + off, Anomalous: w.Anomalous}
	}
	return out
}

// liveCursor hands out consecutive live values of one series, wrapping
// around the generated continuation.
type liveCursor struct {
	vals []float64
	pos  int
}

// next returns the next n live values; the slice is valid until the next
// call when it had to wrap, so callers copy or consume it at once.
func (c *liveCursor) next(n int, scratch []float64) []float64 {
	scratch = scratch[:0]
	for len(scratch) < n {
		lo := c.pos % len(c.vals)
		hi := min(lo+n-len(scratch), len(c.vals))
		scratch = append(scratch, c.vals[lo:hi]...)
		c.pos += hi - lo
	}
	return scratch
}
