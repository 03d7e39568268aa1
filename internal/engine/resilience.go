package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"opprentice/internal/tsdb"
)

// This file is the engine's overload and stall machinery: per-shard
// admission control, the durable-write hand-off to the store whose deadline
// misses flip a series into degraded mode, the threshold-only scorer that
// serves verdicts while degraded, the hysteresis that recovers out of it,
// and the watchdog training and publish rounds run under. Together they
// give the engine a defined answer to "what happens when it can't keep up"
// instead of an unbounded stall.

// SetWALDeadline retunes the durable-write budget at runtime (≤ 0 restores
// the default, 2s).
func (e *Engine) SetWALDeadline(d time.Duration) {
	e.walDeadline.Store(int64(orDefault(d, 2*time.Second)))
}

// SetTrainDeadline retunes the training/publish watchdog at runtime (≤ 0
// restores the default, 5m).
func (e *Engine) SetTrainDeadline(d time.Duration) {
	e.trainDeadline.Store(int64(orDefault(d, 5*time.Minute)))
}

// supervise is the watchdog every training and publish round runs under: fn
// runs on its own goroutine, where a panic is recovered and counted instead
// of crashing the engine, and returned as an error. The wait ends at the
// earlier of the training deadline and ctx's; a run that outlives it, or
// whose ctx is cancelled, is abandoned with an ErrStalled-wrapped error
// (the goroutine finishes in the background; its buffered channel means it
// never leaks). Any other error is fn's own.
func (e *Engine) supervise(ctx context.Context, op, series string, fn func() error) error {
	deadline := time.Duration(e.trainDeadline.Load())
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < deadline {
			deadline = rem
		}
	}
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				e.met.WorkerPanics.Add(1)
				done <- fmt.Errorf("%s panicked: %v", op, r)
			}
		}()
		done <- fn()
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
	case <-ctx.Done():
	}
	e.met.TrainStalls.Add(1)
	return stalledf("%s for %q exceeded its %v deadline", op, series, deadline)
}

// admitToken is a reservation against one shard's in-flight budget. It is a
// value (not a closure) so the per-append admission handshake stays off the
// heap; release must be called exactly once when the append leaves the
// engine.
type admitToken struct {
	sh *shard
	n  int64
}

func (t admitToken) release() { t.sh.inflight.Add(-t.n) }

// admit reserves n points of the shard's in-flight budget, or sheds the
// batch with an ErrOverloaded-wrapped error.
func (e *Engine) admit(sh *shard, n int) (admitToken, error) {
	if cur := sh.inflight.Add(int64(n)); cur > e.ingestInflight {
		sh.inflight.Add(int64(-n))
		e.met.IngestSheds.Add(1)
		return admitToken{}, overloadedf("ingest budget exhausted: %d points in flight, batch of %d over the %d cap",
			cur-int64(n), n, e.ingestInflight)
	}
	return admitToken{sh: sh, n: int64(n)}, nil
}

// enterDegraded flips a series into degraded serving (caller holds m.mu):
// verdicts become threshold-only against the last trained model's cThld,
// appended values accumulate in pending for the recovery replay, and WAL
// records are submitted without waiting for their commit.
func (e *Engine) enterDegraded(m *managed, reason string) {
	if m.degraded {
		return
	}
	m.degraded = true
	m.degradedSince = time.Now()
	m.degradedCThld = 0.5
	if m.monitor != nil {
		m.degradedCThld = m.monitor.CThld()
	}
	m.scorer.seed(m.series.Values)
	m.pending = m.pending[:0]
	m.lastViolation.Store(time.Now().UnixNano())
	e.met.DegradedEntered.Add(1)
	e.log.Warn("series degraded", "series", m.name, "reason", reason)
}

// maybeRecover leaves degraded mode (caller holds m.mu) once the series has
// seen no slow or failed write for the full hysteresis window and has none
// in flight. The values appended while degraded are replayed through the
// real monitor — their client-facing verdicts were already issued by the
// threshold scorer, so replay verdicts are discarded exactly like the
// retrain replay — which makes the monitor state bit-identical to a run
// that never degraded.
func (e *Engine) maybeRecover(m *managed) {
	if !m.degraded {
		return
	}
	last := time.Unix(0, m.lastViolation.Load())
	if time.Since(last) < e.degradedRecovery {
		return
	}
	if m.walWrites.Load() != 0 {
		return
	}
	if m.monitor != nil {
		m.vbatch = m.monitor.StepBatch(m.pending, m.vbatch[:0])
	}
	m.pending = nil
	m.degraded = false
	e.met.DegradedRecovered.Add(1)
	e.log.Info("series recovered from degraded mode",
		"series", m.name, "degraded_for", time.Since(m.degradedSince))
}

// degradeScorer is the O(1) fallback classifier used while degraded: an
// exponentially-weighted mean/deviation estimate of the recent signal,
// scoring each point by its normalized distance. It is deterministic in
// the value sequence, so degraded verdicts are reproducible.
type degradeScorer struct {
	mean, dev float64 // EWMA mean and EWMA absolute deviation
	seeded    bool
}

// scorerSeedWindow is how much trailing history seeds the scorer when a
// series enters degraded mode.
const scorerSeedWindow = 64

// seed primes the estimates from trailing history.
func (s *degradeScorer) seed(values []float64) {
	s.mean, s.dev, s.seeded = 0, 0, false
	lo := len(values) - scorerSeedWindow
	if lo < 0 {
		lo = 0
	}
	for _, v := range values[lo:] {
		s.fold(v)
	}
}

// fold updates the estimates with one observation.
func (s *degradeScorer) fold(v float64) {
	const alpha = 1.0 / 16
	if !s.seeded {
		s.mean, s.dev, s.seeded = v, 0, true
		return
	}
	d := math.Abs(v - s.mean)
	s.mean += alpha * (v - s.mean)
	s.dev += alpha * (d - s.dev)
}

// score folds v in and returns an anomaly probability in [0, 1]: the
// normalized deviation, saturating at six deviations.
func (s *degradeScorer) score(v float64) float64 {
	if !s.seeded {
		s.fold(v)
		return 0
	}
	d := math.Abs(v - s.mean)
	scale := 6 * s.dev
	s.fold(v)
	if scale <= 0 || math.IsNaN(d) {
		if d > 0 {
			return 1
		}
		return 0
	}
	p := d / scale
	if p > 1 {
		p = 1
	}
	return p
}

// Readiness is the /v1/readyz view: the node is ready when no series is
// degraded or quarantined. Field tags double as the wire format.
type Readiness struct {
	Ready       bool     `json:"ready"`
	Degraded    []string `json:"degraded,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
}

// Ready reports whether every series is serving full-fidelity verdicts,
// naming the ones that are not.
func (e *Engine) Ready() Readiness {
	var r Readiness
	for _, m := range e.all() {
		m.mu.Lock()
		degraded := m.degraded
		m.mu.Unlock()
		if degraded {
			r.Degraded = append(r.Degraded, m.name)
		}
		if m.quarantined.Load() {
			r.Quarantined = append(r.Quarantined, m.name)
		}
	}
	r.Ready = len(r.Degraded) == 0 && len(r.Quarantined) == 0
	return r
}

// SyncWAL blocks until the series has no durable write in flight — every
// record submitted before the call has committed or failed — or ctx is done.
// Tests and the simulation harness use it to bring the log to a known point;
// it is not on any hot path.
func (e *Engine) SyncWAL(ctx context.Context, name string) error {
	m, err := e.lookup(name)
	if err != nil {
		return err
	}
	return m.awaitWALIdle(ctx)
}

// awaitWALIdle polls the in-flight count, which completions update without
// taking any lock a waiter could hold.
func (m *managed) awaitWALIdle(ctx context.Context) error {
	for m.walWrites.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// walBufferPoints bounds the points one series may have submitted to the
// store but not yet committed — the memory a stalled disk can pin per series.
// Beyond it, batches are dropped from the log (never from memory) and
// counted in Counters().WALLostPoints.
const walBufferPoints = 1 << 16

var errWALBufferFull = errors.New("series has too many uncommitted points in flight")

// noWait is an already-done context: under it Store.Submit takes queue space
// that is free right now or refuses, but never waits.
var noWait = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// submitWAL hands one record to the store's shard queue, the only queue
// between an append and its fsync. The caller holds m.mu, so a series'
// records are submitted — and therefore committed — in append order. The
// completion runs on the store's appender goroutine and touches only
// atomics: it settles the in-flight accounting, stamps a commit slower than
// the WAL deadline (measured from submission) as a violation for the
// recovery hysteresis, and hands the result to done when someone waits.
func (e *Engine) submitWAL(ctx context.Context, m *managed, rec tsdb.Record, done chan<- error) error {
	n := int64(len(rec.Values))
	if m.walPoints.Load()+n > walBufferPoints {
		return errWALBufferFull
	}
	m.walWrites.Add(1)
	m.walPoints.Add(n)
	submitted := time.Now()
	err := e.store.Submit(ctx, rec, func(err error) {
		if err != nil {
			e.met.WALAppendErrors.Add(1)
			e.log.Error("wal write failed", "series", m.name, "err", err)
		} else if time.Since(submitted) > time.Duration(e.walDeadline.Load()) {
			// A write that committed but blew its budget counts as a
			// violation, not as an error.
			m.lastViolation.Store(time.Now().UnixNano())
		}
		m.walPoints.Add(-n)
		m.walWrites.Add(-1)
		if done != nil {
			done <- err
		}
	})
	if err != nil {
		m.walPoints.Add(-n)
		m.walWrites.Add(-1)
	}
	return err
}

// walPending is a record stageWAL submitted, for settleWAL to judge.
type walPending struct {
	ctx     context.Context // bounded by the WAL deadline
	cancel  context.CancelFunc
	done    chan error // the commit to await; nil when there is none
	degrade string     // why the series degrades without awaiting one
}

// stageWAL submits one points or label record (caller holds m.mu); settleWAL,
// under the same hold, reports whether it committed. Healthy path: wait for
// the commit up to the WAL deadline; a miss — or a shard queue that stays
// full that long — flips the series degraded, while a write the store
// accepted keeps heading to disk. Degraded path: submit without waiting. A
// record the store cannot take is dropped from the log (never from memory)
// with loss accounting; nothing is parked outside the store's queue.
func (e *Engine) stageWAL(ctx context.Context, m *managed, rec tsdb.Record) (p walPending) {
	n := int64(len(rec.Values))
	if m.degraded {
		if err := e.submitWAL(noWait, m, rec, nil); err != nil {
			e.met.WALLostPoints.Add(n)
			e.log.Error("wal write dropped while degraded", "series", m.name, "points", n, "err", err)
		} else {
			e.met.WALBufferedPoints.Add(n)
		}
		return p
	}
	wctx, cancel := e.walContext(ctx)
	done := make(chan error, 1) // buffered: an abandoned wait never blocks the appender
	err := e.submitWAL(wctx, m, rec, done)
	switch {
	case err == nil:
		return walPending{ctx: wctx, cancel: cancel, done: done}
	case !errors.Is(err, errWALBufferFull) && wctx.Err() == nil:
		// Refused outright (closed store, invalid record).
		e.met.WALAppendErrors.Add(1)
		e.log.Error("wal write refused", "series", m.name, "err", err)
	default:
		p.degrade = "store saturated"
		e.met.WALLostPoints.Add(n)
		e.log.Error("wal write dropped: store saturated", "series", m.name, "points", n, "err", err)
	}
	cancel()
	return p
}

// settleWAL is the wait half of a durable write. A waiter may arrive after
// the deadline — AppendBulk steps later runs first — so a commit already in
// hand wins over an expired deadline: it never degrades the series.
func (e *Engine) settleWAL(ctx context.Context, m *managed, p walPending) bool {
	if p.done != nil {
		defer p.cancel()
		select {
		case err := <-p.done:
			// Durable before the call returns: the healthy contract. A failed
			// commit was counted and logged by the completion.
			return err == nil
		case <-p.ctx.Done():
			if len(p.done) > 0 {
				return <-p.done == nil
			}
		}
		p.degrade = "durable write blew its deadline"
	}
	if p.degrade != "" && ctx.Err() == nil {
		// A real deadline miss, not the client hanging up.
		e.enterDegraded(m, p.degrade)
	}
	return false
}

// walContext bounds ctx by the WAL deadline.
func (e *Engine) walContext(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, time.Duration(e.walDeadline.Load()))
}

// createSeries writes a new series' meta record and waits for it up to the
// WAL deadline, so Create keeps its synchronous error contract.
func (e *Engine) createSeries(meta tsdb.Meta) error {
	ctx, cancel := e.walContext(context.Background())
	defer cancel()
	done := make(chan error, 1)
	err := e.store.Submit(ctx, tsdb.Record{Name: meta.Name, Meta: &meta}, func(err error) { done <- err })
	if err == nil {
		select {
		case err = <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return stalledf("wal create for %q timed out", meta.Name)
	}
	return err
}
