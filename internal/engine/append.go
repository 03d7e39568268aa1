package engine

import (
	"context"
	"time"

	"opprentice/internal/tsdb"
)

// Point is one (timestamp, value) observation. Timestamp is optional: when
// zero, the point lands at the series' next slot. Field tags double as the
// service's wire format.
type Point struct {
	Timestamp time.Time `json:"timestamp,omitempty"`
	Value     float64   `json:"value"`
}

// Verdict is one classified point. Field tags double as the service's wire
// format. Degraded marks a threshold-only verdict issued while the series
// was in degraded mode: the full model did not judge the point.
type Verdict struct {
	Index       int     `json:"index"`
	Probability float64 `json:"probability"`
	Anomalous   bool    `json:"anomalous"`
	Degraded    bool    `json:"degraded,omitempty"`
	// Type is the anomaly-type head's prediction for an anomalous verdict
	// ("spike", "drop", ...); empty when the point is normal, the head
	// abstains, or no head is trained.
	Type string `json:"type,omitempty"`
}

// Alarm is one anomalous verdict the engine raised. Field tags double as
// the service's wire format.
type Alarm struct {
	Time        time.Time `json:"time"`
	Value       float64   `json:"value"`
	Probability float64   `json:"probability"`
	CThld       float64   `json:"cthld"`
	// Type is the predicted anomaly class, when a type head is trained and
	// did not abstain.
	Type string `json:"type,omitempty"`
}

// AppendResult reports one Append call.
type AppendResult struct {
	// Appended is how many points were added (all of them, or none on error).
	Appended int
	// Total is the series length afterwards.
	Total int
	// Verdicts holds one verdict per appended point once the series is
	// trained. It aliases the buffer passed to Append (or a fresh slice when
	// none was given): it is valid until the caller reuses that buffer.
	Verdicts []Verdict
	// Persisted is false when a durable store is attached and the batch's
	// append either failed (counted in Counters().WALAppendErrors) or has
	// not yet reached disk — the series is degraded and the write was
	// submitted without waiting for its commit. The points are live in
	// memory either way; a crash before the commit would lose them.
	Persisted bool
	// Degraded reports the series was in degraded mode when the call
	// returned: the batch's verdicts are threshold-only (or, when the
	// degradation happened on this very batch's WAL write, the write is
	// still in flight).
	Degraded bool
}

// Append is the ingest hot path: it validates the whole batch's timestamps
// up front (an out-of-order timestamp anywhere rejects the entire batch with
// an ErrRejected-wrapped error and appends nothing), then under the series'
// single-writer mutex appends each point, steps the live monitor for a
// verdict, records alarms in the bounded ring, enqueues incident
// observations (delivery is asynchronous), and issues one WAL append for the
// batch. Metrics are updated once per batch, not per point.
//
// Resilience semantics: the batch is first admitted against the shard's
// in-flight budget — over budget it is shed whole with an
// ErrOverloaded-wrapped error before any mutation. The WAL append is
// submitted to the store under the series mutex; the healthy path waits for
// its commit up to the WAL deadline, and a miss flips the series into
// degraded mode (threshold-only verdicts, unawaited writes, Persisted=false)
// until the recovery hysteresis clears. Degraded verdicts are advisory: they
// are returned to the caller but never enter the alarm ring or the incident
// pipeline, so a half-blind scorer cannot page an operator.
//
// vbuf, when non-nil, is reused for the verdicts (grown as needed) so a
// serving layer can pool allocations; pass nil for a fresh slice.
func (e *Engine) Append(ctx context.Context, name string, pts []Point, vbuf []Verdict) (AppendResult, error) {
	if err := e.checkBatch(pts); err != nil {
		return AppendResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return AppendResult{}, err
	}
	m, sh, err := e.lookupShard(name)
	if err != nil {
		return AppendResult{}, err
	}
	tok, err := e.admit(sh, len(pts))
	if err != nil {
		return AppendResult{}, err
	}
	defer tok.release()
	m.mu.Lock()
	s, err := e.stage(ctx, m, pts, vbuf)
	if err != nil {
		return AppendResult{}, err
	}
	return e.settle(ctx, &s), nil
}

// checkBatch is both append doors' check before admission: a batch is not
// empty and fits one WAL record, which submitWAL would refuse as saturated.
func (e *Engine) checkBatch(pts []Point) error {
	if len(pts) == 0 {
		return invalidf("no points")
	}
	if e.store != nil && len(pts) > walBufferPoints {
		return rejectedf("batch of %d points is over the %d one WAL record holds: split the batch", len(pts), walBufferPoints)
	}
	return nil
}

// stagedRun is a staged batch whose series lock is still held.
type stagedRun struct {
	m      *managed
	res    AppendResult
	wal    walPending
	alarms int // healthy verdicts that raised an alarm
}

// stage is the first half of the locked ingest body (caller holds m.mu and
// admitted len(pts)): validate, append, score, submit the WAL record. On
// error it has changed nothing and released m.mu.
func (e *Engine) stage(ctx context.Context, m *managed, pts []Point, vbuf []Verdict) (stagedRun, error) {
	vbuf = vbuf[:0]
	e.maybeRecover(m)
	// Whole-batch timestamp validation before any mutation: a rejected batch
	// must leave the series exactly as it was (the pre-engine service
	// appended the points preceding the bad one — see the regression test).
	base := m.series.Len()
	for i, p := range pts {
		if p.Timestamp.IsZero() {
			continue
		}
		want := m.series.TimeAt(base + i)
		if !p.Timestamp.UTC().Equal(want) {
			m.mu.Unlock()
			return stagedRun{}, rejectedf("out-of-order point: got %v, next slot is %v", p.Timestamp.UTC(), want)
		}
	}

	for _, p := range pts {
		m.series.Append(p.Value)
		m.labels = append(m.labels, false)
		if m.typed != nil {
			m.typed = append(m.typed, 0)
		}
	}
	alarmsRaised := 0
	switch {
	case m.monitor == nil:
	case m.degraded:
		// Threshold-only verdicts: the monitor is not stepped — values are
		// parked in pending and replayed through it at recovery, so the
		// model converges with a run that never degraded. Degraded state
		// cannot flip mid-batch (enterDegraded runs only after this loop),
		// so the batch is wholly degraded or wholly healthy.
		for i, p := range pts {
			prob := m.scorer.score(p.Value)
			vbuf = append(vbuf, Verdict{
				Index:       base + i,
				Probability: prob,
				Anomalous:   prob >= m.degradedCThld,
				Degraded:    true,
			})
			m.pending = append(m.pending, p.Value)
		}
	default:
		// Batched scoring: the just-appended tail of the series is scored
		// with one monitor call — one forest inference for the whole batch
		// instead of one per point — into a per-series reusable verdict
		// buffer. Bit-identical to stepping each point individually.
		m.vbatch = m.monitor.StepBatch(m.series.Values[base:m.series.Len()], m.vbatch[:0])
		for i, v := range m.vbatch {
			idx := base + i
			// Class.Wire returns a constant string ("" for none), so the
			// verdict stays allocation-free.
			vbuf = append(vbuf, Verdict{Index: idx, Probability: v.Probability, Anomalous: v.Anomalous, Type: v.Class.Wire()})
			// Allocation-free by contract: uncertainty sampling and the drift
			// histogram ride every trained verdict.
			m.active.Observe(idx, v.Probability, v.CThld)
			if v.Anomalous {
				alarmsRaised++
				m.alarms.push(Alarm{
					Time:        m.series.TimeAt(idx),
					Value:       pts[i].Value,
					Probability: v.Probability,
					CThld:       v.CThld,
					Type:        v.Class.Wire(),
				})
			}
			if m.incident != nil {
				// Observe only folds state and enqueues on the async pipeline —
				// it cannot block on delivery. The one error surface is a
				// saturated queue, which the pipeline counts and we log.
				if err := m.incident.Observe(context.Background(), m.series.TimeAt(idx), v.Anomalous, v.Probability); err != nil {
					e.log.Warn("incident notification not queued", "series", m.name, "err", err)
				}
			}
		}
	}
	s := stagedRun{m: m, alarms: alarmsRaised, res: AppendResult{
		Appended:  len(pts),
		Total:     m.series.Len(),
		Verdicts:  vbuf,
		Persisted: true,
	}}
	if e.store != nil {
		// The record aliases the committed range of the series' value slice
		// instead of copying it: the series is append-only, so [base, Total)
		// is immutable from here on — later appends either write past Total
		// or reallocate the backing array — and the store borrows it only
		// until the commit.
		s.wal = e.stageWAL(ctx, m, tsdb.Record{Name: m.name, Values: m.series.Values[base:s.res.Total:s.res.Total]})
	}
	return s, nil
}

// settle is the second half: it awaits the commit (settleWAL), arms the
// retrain triggers and releases m.mu — held until the points are durable, so
// no retrain snapshot, label record or publish reads one that is not.
func (e *Engine) settle(ctx context.Context, s *stagedRun) AppendResult {
	m := s.m
	if e.store != nil {
		s.res.Persisted = e.settleWAL(ctx, m, s.wal)
	}
	// Weekly-style automatic incremental retraining (§3.2), scheduled on the
	// background workers: ingest never blocks on a training round. The drift
	// detector arms the same trigger early — before the weekly tick — when
	// the vote-fraction distribution has shifted against the live model's
	// reference (see internal/active).
	if m.retrainEvery > 0 && m.monitor != nil && !m.degraded {
		// Both triggers hold off while degraded: the batch is buffered, not
		// yet durable, so a retrain here could publish a model claiming
		// points the WAL would not hold after a crash. The watermark is
		// untouched, so the first healthy batch after recovery re-arms.
		switch {
		case m.series.Len()-m.pointsAtTrain >= m.retrainEvery:
			e.scheduleRetrain(m)
		case m.active.TakeDrift():
			if e.scheduleRetrain(m) {
				e.met.DriftRetrains.Add(1)
				e.log.Info("drift-triggered retrain scheduled",
					"series", m.name, "psi", m.active.DriftScore())
			}
		}
	}
	s.res.Degraded = m.degraded
	m.mu.Unlock()

	// Per-batch metric updates keep hot-path atomics off the per-point loop.
	e.met.PointsIngested.Add(int64(s.res.Appended))
	if s.alarms > 0 {
		e.met.AlarmsRaised.Add(int64(s.alarms))
	}
	return s.res
}

// alarmRing is a bounded buffer of the most recent alarms: O(1) push with no
// growth beyond max, unlike the slice-trim approach it replaces.
type alarmRing struct {
	max  int
	buf  []Alarm
	next int // index of the oldest element once saturated
}

// push records one alarm, evicting the oldest when full.
func (r *alarmRing) push(a Alarm) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, a)
		return
	}
	if r.max == 0 {
		return
	}
	r.buf[r.next] = a
	r.next++
	if r.next == r.max {
		r.next = 0
	}
}

// len returns how many alarms are retained.
func (r *alarmRing) len() int { return len(r.buf) }

// since returns the retained alarms strictly after t, oldest first, as a
// fresh slice (never nil).
func (r *alarmRing) since(t time.Time) []Alarm {
	out := make([]Alarm, 0, len(r.buf))
	emit := func(as []Alarm) {
		for _, a := range as {
			if a.Time.After(t) {
				out = append(out, a)
			}
		}
	}
	if len(r.buf) < r.max || r.next == 0 {
		emit(r.buf)
	} else {
		emit(r.buf[r.next:])
		emit(r.buf[:r.next])
	}
	return out
}

// last returns up to n of the most recent alarms, oldest first.
func (r *alarmRing) last(n int) []Alarm {
	all := r.since(time.Time{})
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// drainContext bounds the pipeline drain during Close.
func drainContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 2*time.Second)
}
