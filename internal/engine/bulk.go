package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"opprentice/internal/fanout"
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
// k-th batch is empty, too large for one WAL record, carries a timestamp or
// names an unknown series, batches 0..k-1 apply and the error, naming that
// series, follows. Admission reserves the prefix's points with one atomic
// add per touched shard and sheds it whole if any shard is over budget.
//
// The prefix applies as one run per series — its batches concatenated in
// stream order, one locked append: one StepBatch, one WAL record — with
// distinct series' runs on up to GOMAXPROCS workers of one fanout.Run, each
// paying one commit wait per round (claimRuns). Each series still takes its
// points in order under its lock, held until they are durable; series share
// only concurrency-safe state, and no run can fail, so the prefix contract
// holds. A panic on any worker reaches the caller once every worker has
// settled, and unlocked, the runs it held staged; the run it struck is left
// as Append leaves a series it panics in.
//
// vbuf is reusable verdict scratch that AppendBulk takes over: the caller
// keeps only the returned slice, which holds the verdicts of one run of the
// group's last round — the last run the caller's own worker applied, or, if
// the other workers claimed them all, the last run of the lowest-numbered
// worker that applied one. For a one-series group, its verdicts.
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

// resolveBatch looks up a valid, timestamp-free batch's series.
func (e *Engine) resolveBatch(b SeriesBatch) (*managed, *shard, error) {
	if err := e.checkBatch(b.Points); err != nil {
		return nil, nil, err
	}
	if i := slices.IndexFunc(b.Points, func(p Point) bool { return !p.Timestamp.IsZero() }); i >= 0 {
		return nil, nil, invalidf("bulk points take the next slots, got timestamp %v", b.Points[i].Timestamp.UTC())
	}
	return e.lookupShard(b.Name)
}

// bulkRun is one series' batches of a round, applied by one stage and settle.
type bulkRun struct {
	m      *managed
	n      int     // points
	pts    []Point // the run's points once merged
	alarms int
}

// bulkGroup is AppendBulk's pooled scratch: a group allocates only workers.
type bulkGroup struct {
	series []*managed    // per admitted batch
	shares []admitToken  // per touched shard: the points to admit, then their token
	runs   []bulkRun     // the current round
	merged []Point       // points of the round's runs of several batches
	vbufs  [][]Verdict   // per worker, the caller's first: verdict buffers
	staged []bool        // per worker: whether it staged a run this round
	held   [][]stagedRun // per worker: runs staged, locks held
	next   atomic.Int64  // the next run to claim
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

// applyRuns applies the round's runs on fanout.Workers(runs) workers, the
// caller's among them (worker 0, which starts from vbuf), each claiming runs
// from g.next into its own emptied buffer. It returns worker 0's verdicts if
// worker 0 staged a run, and otherwise those of the lowest-numbered worker
// that did, swapping that worker's buffer with worker 0's, so that no buffer
// has two owners. A worker settles the runs it holds before it returns,
// panicking or not: settling after Run would leave two opposed groups each
// waiting on a lock the other holds staged.
func (e *Engine) applyRuns(ctx context.Context, g *bulkGroup, vbuf []Verdict) []Verdict {
	g.next.Store(0)
	workers := fanout.Workers(len(g.runs))
	g.vbufs = append(g.vbufs, make([][]Verdict, max(workers-len(g.vbufs), 0))...)
	g.staged = append(g.staged, make([]bool, max(workers-len(g.staged), 0))...)
	g.held = append(g.held, make([][]stagedRun, max(workers-len(g.held), 0))...)
	g.vbufs[0] = vbuf
	for w := range workers {
		g.vbufs[w], g.staged[w] = g.vbufs[w][:0], false
	}
	fanout.Run(workers, workers, func(w, _ int) {
		// A worker may claim more than one of Run's items: its buffer keeps
		// the last run it staged.
		var staged bool
		g.vbufs[w], staged = e.claimRuns(ctx, g, g.vbufs[w], &g.held[w])
		g.staged[w] = g.staged[w] || staged
	})
	if k := slices.Index(g.staged[:workers], true); k > 0 {
		g.vbufs[0], g.vbufs[k] = g.vbufs[k], g.vbufs[0]
	}
	vbuf, g.vbufs[0] = g.vbufs[0], nil
	return vbuf
}

// claimRuns is one worker's loop. It holds each run it stages, lock and all,
// so the store commits earlier records while it steps later runs, and settles
// them all once no run is left. It never blocks on a lock while holding one —
// a busy lock makes it settle first — so nothing can deadlock against it.
// stage refuses only timestamped points, which resolveBatch turned away. A
// panic still settles, and unlocks, every run held whole; the run it struck
// mid-stage is left as Append would leave it. It returns vbuf holding the
// verdicts of the last run it staged, and whether it staged one.
func (e *Engine) claimRuns(ctx context.Context, g *bulkGroup, vbuf []Verdict, held *[]stagedRun) ([]Verdict, bool) {
	settleHeld := func() {
		for i := range *held {
			e.settle(ctx, &(*held)[i])
		}
		clear(*held)
		*held = (*held)[:0]
	}
	defer settleHeld()
	staged := false
	for i := int(g.next.Add(1)) - 1; i < len(g.runs); i = int(g.next.Add(1)) - 1 {
		r := &g.runs[i]
		if !r.m.mu.TryLock() {
			settleHeld()
			r.m.mu.Lock()
		}
		if s, err := e.stage(ctx, r.m, r.pts, vbuf); err == nil {
			vbuf, r.alarms = s.res.Verdicts, s.alarms
			*held = append(*held, s)
			staged = true
		}
	}
	return vbuf, staged
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
