package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// SeriesBatch is one series' slice of a bulk append: points destined for the
// series' next slots, in stream order, carrying no timestamps.
type SeriesBatch struct {
	Name   string
	Points []Point
}

// BulkSummary reports an AppendBulk call: totals over the batches that
// applied (on error, the prefix before the failing batch).
type BulkSummary struct {
	// Appended is the number of points committed.
	Appended int
	// Batches is how many batches fully applied.
	Batches int
	// Alarms is how many committed points were judged anomalous by a
	// healthy (non-degraded) scorer.
	Alarms int
}

// AppendBulk applies a flush group — batches for any number of series — as
// the ingest stream's fast path. Lookup and validation run up front: if the
// k-th batch is empty, carries a timestamp or names an unknown series,
// batches 0..k-1 apply and the error, naming that series, follows. Admission
// reserves the prefix's points with one atomic add per touched shard and
// sheds it whole if any shard is over budget.
//
// The prefix applies as one run per series — its batches concatenated in
// stream order, one locked append: one StepBatch, one WAL record, one commit
// wait — with distinct series' runs on up to GOMAXPROCS goroutines. Each
// series still takes its points in order under its lock, series share only
// concurrency-safe state, and no run can fail, so the prefix contract holds.
//
// vbuf is reusable verdict scratch, returned grown; it ends holding the
// verdicts of the caller's last run — for a one-series group, its verdicts.
func (e *Engine) AppendBulk(ctx context.Context, batches []SeriesBatch, vbuf []Verdict) (BulkSummary, []Verdict, error) {
	var sum BulkSummary
	if len(batches) == 0 {
		return sum, vbuf, invalidf("no batches")
	}
	if err := ctx.Err(); err != nil {
		return sum, vbuf, err
	}
	g := bulkGroups.Get().(*bulkGroup)
	defer g.release()

	var deferred error
	for _, b := range batches {
		m, sh, err := e.resolveBatch(b)
		if err != nil {
			deferred = fmt.Errorf("series %q: %w", b.Name, err)
			break
		}
		g.series = append(g.series, m)
		k := slices.IndexFunc(g.shares, func(t admitToken) bool { return t.sh == sh })
		if k < 0 {
			k, g.shares = len(g.shares), append(g.shares, admitToken{sh: sh})
		}
		g.shares[k].n += int64(len(b.Points))
	}
	batches = batches[:len(g.series)]

	for k, s := range g.shares {
		tok, err := e.admit(s.sh, int(s.n))
		if err != nil {
			g.shares = g.shares[:k] // release only what was reserved
			return sum, vbuf, err
		}
		g.shares[k] = tok
	}

	for lo := 0; lo < len(batches); {
		hi := g.merge(batches, lo)
		vbuf = e.applyRuns(ctx, g, vbuf)
		for _, r := range g.runs {
			sum.Appended += len(r.pts)
			sum.Alarms += r.alarms
		}
		lo = hi
	}
	sum.Batches = len(batches)
	return sum, vbuf, deferred
}

// resolveBatch looks up a non-empty, timestamp-free batch's series.
func (e *Engine) resolveBatch(b SeriesBatch) (*managed, *shard, error) {
	if len(b.Points) == 0 {
		return nil, nil, invalidf("no points")
	}
	if i := slices.IndexFunc(b.Points, func(p Point) bool { return !p.Timestamp.IsZero() }); i >= 0 {
		return nil, nil, invalidf("bulk points take the next slots, got timestamp %v", b.Points[i].Timestamp.UTC())
	}
	sh := e.shardFor(b.Name)
	sh.mu.RLock()
	m := sh.series[b.Name]
	sh.mu.RUnlock()
	if m == nil {
		return nil, nil, notFound(b.Name)
	}
	return m, sh, nil
}

// bulkRun is one series' batches of a round, applied by one appendSeries.
type bulkRun struct {
	m      *managed
	n      int     // points
	pts    []Point // the run's points once merged
	alarms int
}

// bulkGroup is AppendBulk's pooled scratch: a group allocates only workers.
type bulkGroup struct {
	series []*managed   // per admitted batch
	shares []admitToken // per touched shard: the points to admit, then their token
	runs   []bulkRun    // the current round
	merged []Point      // points of the round's runs of several batches
	vbufs  [][]Verdict  // verdict buffers of the workers beside the caller
	next   atomic.Int64 // the next run to claim
	wg     sync.WaitGroup
}

var bulkGroups = sync.Pool{New: func() any { return new(bulkGroup) }}

// merge builds the runs of batches[lo:hi], hi being the first batch that
// would grow its run past walBufferPoints (the cap on a series' uncommitted
// points) or the end. A series met once aliases its batch, capped so nothing
// writes into the caller's arena; one met again is copied, in stream order,
// into the pooled merge buffer.
func (g *bulkGroup) merge(batches []SeriesBatch, lo int) (hi int) {
	clear(g.runs)
	g.runs, g.merged = g.runs[:0], g.merged[:0]
	for hi = lo; hi < len(batches); hi++ {
		m, pts := g.series[hi], batches[hi].Points
		r := slices.IndexFunc(g.runs, func(r bulkRun) bool { return r.m == m })
		if r < 0 {
			r, g.runs = len(g.runs), append(g.runs, bulkRun{m: m, pts: pts[:len(pts):len(pts)]})
		} else if g.runs[r].n+len(pts) > walBufferPoints {
			break
		}
		g.runs[r].n += len(pts)
	}
	for i := range g.runs {
		if r := &g.runs[i]; len(r.pts) < r.n {
			from := len(g.merged)
			for k, m := range g.series[lo:hi] {
				if m == r.m {
					g.merged = append(g.merged, batches[lo+k].Points...)
				}
			}
			// Growing the buffer leaves earlier runs on the old array, intact.
			r.pts = g.merged[from:len(g.merged):len(g.merged)]
		}
	}
	return hi
}

// applyRuns applies the round's runs on min(GOMAXPROCS, runs) goroutines,
// the caller's among them, each claiming runs from g.next.
func (e *Engine) applyRuns(ctx context.Context, g *bulkGroup, vbuf []Verdict) []Verdict {
	g.next.Store(0)
	workers := min(runtime.GOMAXPROCS(0), len(g.runs))
	g.vbufs = append(g.vbufs, make([][]Verdict, max(workers-1-len(g.vbufs), 0))...)
	for w := range workers - 1 {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.vbufs[w] = e.claimRuns(ctx, g, g.vbufs[w])
		}()
	}
	vbuf = e.claimRuns(ctx, g, vbuf)
	g.wg.Wait()
	return vbuf
}

// claimRuns is one worker's loop. appendSeries refuses only timestamped
// points, which resolveBatch turned away, so its error is always nil.
func (e *Engine) claimRuns(ctx context.Context, g *bulkGroup, vbuf []Verdict) []Verdict {
	for i := int(g.next.Add(1)) - 1; i < len(g.runs); i = int(g.next.Add(1)) - 1 {
		r := &g.runs[i]
		res, _ := e.appendSeries(ctx, r.m, r.pts, vbuf)
		vbuf = res.Verdicts
		for _, v := range vbuf {
			if v.Anomalous && !v.Degraded {
				r.alarms++
			}
		}
	}
	return vbuf
}

// release returns the admitted budget and g to the pool, dropping g's
// references to series and to the caller's points.
func (g *bulkGroup) release() {
	for _, t := range g.shares {
		t.release()
	}
	clear(g.series)
	clear(g.runs)
	g.series, g.shares, g.runs = g.series[:0], g.shares[:0], g.runs[:0]
	bulkGroups.Put(g)
}
