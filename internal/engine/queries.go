package engine

import (
	"context"
	"sort"
	"time"

	"opprentice/internal/tsdb"
)

// Query is one pending label query: a window of points the live forest was
// least certain about (vote fraction within the query band around the
// cThld). Field tags double as the service's wire format. Score is in
// (0, 1]: 1 means a vote fraction exactly at the threshold.
type Query struct {
	Series    string    `json:"series"`
	Start     int       `json:"start"`
	End       int       `json:"end"`
	StartTime time.Time `json:"start_time"`
	EndTime   time.Time `json:"end_time"`
	Points    int       `json:"points"`
	Score     float64   `json:"score"`
}

// Queries returns the pending label queries, most uncertain first (ties by
// series then start). With name == "" it spans every managed series;
// otherwise only the named one (ErrNotFound if it does not exist). A series
// with the query queue disabled simply contributes nothing.
func (e *Engine) Queries(ctx context.Context, name string) ([]Query, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ms := e.all()
	if name != "" {
		m, err := e.lookup(name)
		if err != nil {
			return nil, err
		}
		ms = []*managed{m}
	}
	out := []Query{}
	for _, m := range ms {
		if m.active == nil {
			continue
		}
		m.mu.Lock()
		for _, w := range m.active.Windows(nil) {
			out = append(out, Query{
				Series:    m.name,
				Start:     w.Start,
				End:       w.End,
				StartTime: m.series.TimeAt(w.Start),
				EndTime:   m.series.TimeAt(w.End),
				Points:    w.Points,
				Score:     w.Score,
			})
		}
		m.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Series != out[j].Series {
			return out[i].Series < out[j].Series
		}
		return out[i].Start < out[j].Start
	})
	return out, nil
}

// AnswerQuery resolves one pending query: the window [start, end) must
// exactly match a queued query for the series (ErrRejected otherwise — the
// query may have been evicted, answered already, or cleared by a retrain),
// the answer is applied as an ordinary label action (durable via the WAL
// like Label), and the query leaves the queue so it is never surfaced
// twice. The labels feed the next training round exactly as operator
// labels do.
func (e *Engine) AnswerQuery(ctx context.Context, name string, start, end int, anomalous bool) (LabelResult, error) {
	if err := ctx.Err(); err != nil {
		return LabelResult{}, err
	}
	m, err := e.lookup(name)
	if err != nil {
		return LabelResult{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active == nil || !m.active.Remove(start, end) {
		return LabelResult{}, rejectedf("no pending query [%d, %d) for series %q", start, end, name)
	}
	for i := start; i < end; i++ {
		m.labels[i] = anomalous
		// Query answers carry no anomaly type; clear any stale class so the
		// typed channel never disagrees with the labels.
		if m.typed != nil {
			m.typed[i] = 0
		}
	}
	if e.store != nil {
		e.walWrite(ctx, m, tsdb.Record{Name: m.name, Start: start, End: end, Anomalous: anomalous})
	}
	e.met.QueriesAnswered.Add(1)
	return LabelResult{
		AnomalousPoints: m.labels.Count(),
		LabeledWindows:  len(m.labels.Windows()),
	}, nil
}
