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
// serves verdicts while degraded, and the hysteresis that recovers out of
// it. The training watchdog lives in train.go; together they give the
// engine a defined answer to "what happens when it can't keep up" instead
// of an unbounded stall.

// SetWALDeadline retunes the durable-write budget at runtime (0 disables).
func (e *Engine) SetWALDeadline(d time.Duration) { e.walDeadline.Store(int64(d)) }

// SetTrainDeadline retunes the training/publish watchdog at runtime
// (0 disables).
func (e *Engine) SetTrainDeadline(d time.Duration) { e.trainDeadline.Store(int64(d)) }

// supervise runs fn on its own goroutine under the training-watchdog
// deadline: a panic is recovered and counted instead of crashing the
// engine, and a run that outlives the deadline is abandoned with an
// ErrStalled-wrapped error (the goroutine finishes in the background; its
// buffered channel means it never leaks).
func (e *Engine) supervise(op, series string, fn func() error) error {
	deadline := time.Duration(e.trainDeadline.Load())
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
	if deadline <= 0 {
		return <-done
	}
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		e.met.TrainStalls.Add(1)
		return stalledf("%s for %q exceeded its %v deadline", op, series, deadline)
	}
}

// admitToken is a reservation against one shard's in-flight budget. It is a
// value (not a closure) so the per-append admission handshake stays off the
// heap; release must be called exactly once when the append leaves the
// engine. The zero token releases nothing.
type admitToken struct {
	sh *shard
	n  int64
}

func (t admitToken) release() {
	if t.sh != nil {
		t.sh.inflight.Add(-t.n)
	}
}

// admit reserves n points of the shard's in-flight budget, or sheds the
// batch with an ErrOverloaded-wrapped error.
func (e *Engine) admit(sh *shard, n int) (admitToken, error) {
	if e.ingestInflight <= 0 {
		return admitToken{}, nil
	}
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
	rec := e.degradedRecovery
	if rec <= 0 {
		return // sticky until restart
	}
	last := time.Unix(0, m.lastViolation.Load())
	if time.Since(last) < rec {
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
		} else if d := time.Duration(e.walDeadline.Load()); d > 0 && time.Since(submitted) > d {
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

// walWrite makes one points or label record durable (caller holds m.mu) and
// reports whether it committed before the call returned. Healthy path: wait
// for the commit up to the WAL deadline; a miss — or a shard queue that
// stays full that long — flips the series degraded, while a write the store
// accepted keeps heading to disk. Degraded path: submit without waiting. A
// record the store cannot take is dropped from the log (never from memory)
// with loss accounting; nothing is parked outside the store's queue.
func (e *Engine) walWrite(ctx context.Context, m *managed, rec tsdb.Record) bool {
	n := int64(len(rec.Values))
	if m.degraded {
		if err := e.submitWAL(noWait, m, rec, nil); err != nil {
			e.met.WALLostPoints.Add(n)
			e.log.Error("wal write dropped while degraded", "series", m.name, "points", n, "err", err)
		} else {
			e.met.WALBufferedPoints.Add(n)
		}
		return false
	}
	wctx, cancel := e.walContext(ctx)
	defer cancel()
	done := make(chan error, 1) // buffered: an abandoned wait never blocks the appender
	err := e.submitWAL(wctx, m, rec, done)
	reason := "durable write blew its deadline"
	switch {
	case err == nil:
		select {
		case err := <-done:
			// Durable before the call returns: the healthy contract. A failed
			// commit was counted and logged by the completion.
			return err == nil
		case <-wctx.Done():
		}
	case !errors.Is(err, errWALBufferFull) && wctx.Err() == nil:
		// Refused outright (closed store, invalid record).
		e.met.WALAppendErrors.Add(1)
		e.log.Error("wal write refused", "series", m.name, "err", err)
		return false
	default:
		reason = "store saturated"
		e.met.WALLostPoints.Add(n)
		e.log.Error("wal write dropped: store saturated", "series", m.name, "points", n, "err", err)
	}
	if ctx.Err() == nil {
		// A real deadline miss, not the client hanging up.
		e.enterDegraded(m, reason)
	}
	return false
}

// walContext bounds ctx by the WAL deadline, when one is set.
func (e *Engine) walContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := time.Duration(e.walDeadline.Load()); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
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
