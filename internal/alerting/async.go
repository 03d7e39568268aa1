package alerting

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline is an asynchronous, retrying delivery queue in front of a
// Notifier. Notify never blocks: events are appended to a bounded queue and
// a background worker delivers them with exponential backoff, jitter and a
// max-attempts bound; a circuit breaker trips after a run of consecutive
// failures so a dead endpoint is probed instead of hammered. When the queue
// is full the newest event is dropped (and counted) rather than stalling the
// caller — in the service this is what keeps a slow or dead webhook off the
// ingest hot path.
//
// A panicking inner notifier is sandboxed: the panic is recovered and
// treated as a delivery failure.
type Pipeline struct {
	inner Notifier
	cfg   PipelineConfig

	ch       chan Event
	quit     chan struct{}
	done     chan struct{}
	closing  atomic.Bool
	closeOne sync.Once
	// lifeCtx is canceled by Close so an in-flight Notify attempt (e.g. a
	// hung webhook) unblocks promptly instead of running out its timeout.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	enqueued  atomic.Int64
	delivered atomic.Int64
	retried   atomic.Int64
	dropped   atomic.Int64
	pending   atomic.Int64 // events Notify accepted, not yet delivered or dropped

	brMu        sync.Mutex
	brFailures  int
	brOpenUntil time.Time
	brTripped   atomic.Int64
}

// PipelineConfig tunes a Pipeline. Zero values pick production-ish defaults;
// tests shrink the delays to keep fault injection fast.
type PipelineConfig struct {
	// QueueSize bounds the number of undelivered events (default 256).
	QueueSize int
	// MaxAttempts is the delivery attempts per event, including the first
	// (default 5). After that the event is dropped and counted.
	MaxAttempts int
	// BaseDelay is the first retry's backoff (default 100ms); it doubles per
	// attempt up to MaxDelay (default 30s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter is the random fraction added to each backoff delay, in (0, 1]
	// (default 0.2, also for a value outside that range), decorrelating
	// retry storms across series.
	Jitter float64
	// AttemptTimeout bounds one Notify call (default 10s).
	AttemptTimeout time.Duration
	// BreakerThreshold is how many consecutive failures trip the circuit
	// breaker (default 8); while open, delivery waits out BreakerCooldown
	// (default 30s) before the next probe instead of burning attempts.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Log receives drop and breaker transitions (default slog.Default).
	Log *slog.Logger
}

func (cfg *PipelineConfig) applyDefaults() {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 30 * time.Second
	}
	if cfg.Jitter <= 0 || cfg.Jitter > 1 {
		cfg.Jitter = 0.2
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 10 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 8
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
}

// NewPipeline wraps inner and starts the delivery worker. Close it to stop.
func NewPipeline(inner Notifier, cfg PipelineConfig) *Pipeline {
	cfg.applyDefaults()
	p := &Pipeline{
		inner: inner,
		cfg:   cfg,
		ch:    make(chan Event, cfg.QueueSize),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	p.lifeCtx, p.lifeCancel = context.WithCancel(context.Background())
	go p.run()
	return p
}

// Notify implements Notifier by enqueueing the event; it returns immediately.
// ErrQueueFull is returned (and the event counted dropped) when the queue is
// saturated or the pipeline is closed.
func (p *Pipeline) Notify(_ context.Context, e Event) error {
	if p.closing.Load() {
		p.dropped.Add(1)
		return ErrPipelineClosed
	}
	// Counted before the send, so Drain never sees an accepted event the
	// worker has dequeued but not yet resolved as gone.
	p.pending.Add(1)
	select {
	case p.ch <- e:
		p.enqueued.Add(1)
		return nil
	default:
		p.pending.Add(-1)
		p.dropped.Add(1)
		p.cfg.Log.Warn("alerting: queue full, event dropped",
			"series", e.Series, "state", e.State)
		return ErrQueueFull
	}
}

// Sentinel errors Notify can return.
var (
	ErrQueueFull      = fmt.Errorf("alerting: delivery queue full")
	ErrPipelineClosed = fmt.Errorf("alerting: pipeline closed")
)

// Close stops accepting events, lets the worker finish the event it is
// working on, counts everything still queued as dropped, and waits for the
// worker to exit. Safe to call more than once.
func (p *Pipeline) Close() {
	p.closeOne.Do(func() {
		p.closing.Store(true)
		close(p.quit)
		p.lifeCancel()
	})
	<-p.done
}

// Drain blocks until every event Notify accepted is delivered or dropped, or
// ctx expires. Useful in tests and graceful shutdown when pending
// notifications should still go out.
func (p *Pipeline) Drain(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if p.pending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Stats is a point-in-time snapshot of the pipeline's counters.
type Stats struct {
	// Enqueued is how many events were accepted into the queue.
	Enqueued int64
	// Delivered is how many events the inner notifier acknowledged.
	Delivered int64
	// Retried is how many delivery attempts beyond each event's first were
	// made.
	Retried int64
	// Dropped is how many events were abandoned: queue full, max attempts
	// exhausted, or pipeline closed with work outstanding.
	Dropped int64
	// BreakerTrips is how many times the circuit breaker opened.
	BreakerTrips int64
}

// Stats returns the current counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Enqueued:     p.enqueued.Load(),
		Delivered:    p.delivered.Load(),
		Retried:      p.retried.Load(),
		Dropped:      p.dropped.Load(),
		BreakerTrips: p.brTripped.Load(),
	}
}

// BreakerOpen reports whether the circuit breaker is currently open.
func (p *Pipeline) BreakerOpen() bool {
	p.brMu.Lock()
	defer p.brMu.Unlock()
	return time.Now().Before(p.brOpenUntil)
}

// run is the delivery worker.
func (p *Pipeline) run() {
	defer close(p.done)
	for {
		select {
		case <-p.quit:
			// Count everything still queued as dropped and exit.
			for {
				select {
				case <-p.ch:
					p.dropped.Add(1)
					p.pending.Add(-1)
				default:
					return
				}
			}
		case e := <-p.ch:
			p.deliver(e)
			p.pending.Add(-1)
		}
	}
}

// deliver attempts one event with backoff until success, max attempts, or
// close.
func (p *Pipeline) deliver(e Event) {
	delay := p.cfg.BaseDelay
	for attempt := 1; ; attempt++ {
		if wait := p.breakerWait(); wait > 0 {
			if !p.sleep(wait) {
				p.dropped.Add(1)
				return
			}
		}
		err := p.attempt(e)
		if err == nil {
			p.breakerSuccess()
			p.delivered.Add(1)
			return
		}
		p.breakerFailure()
		if attempt >= p.cfg.MaxAttempts {
			p.dropped.Add(1)
			p.cfg.Log.Warn("alerting: event dropped after max attempts",
				"series", e.Series, "state", e.State,
				"attempts", attempt, "err", err)
			return
		}
		p.retried.Add(1)
		jittered := delay + time.Duration(p.cfg.Jitter*rand.Float64()*float64(delay))
		if !p.sleep(jittered) {
			p.dropped.Add(1)
			return
		}
		if delay *= 2; delay > p.cfg.MaxDelay {
			delay = p.cfg.MaxDelay
		}
	}
}

// attempt runs one Notify call under the attempt timeout, converting a panic
// in the inner notifier into an error.
func (p *Pipeline) attempt(e Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("alerting: notifier panicked: %v", r)
		}
	}()
	ctx, cancel := context.WithTimeout(p.lifeCtx, p.cfg.AttemptTimeout)
	defer cancel()
	return p.inner.Notify(ctx, e)
}

// sleep waits for d unless the pipeline is closed first; it reports whether
// the full wait elapsed.
func (p *Pipeline) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.quit:
		return false
	}
}

// breakerWait returns how long delivery must wait for the breaker's cooldown
// (0 when closed or already expired).
func (p *Pipeline) breakerWait() time.Duration {
	p.brMu.Lock()
	defer p.brMu.Unlock()
	if wait := time.Until(p.brOpenUntil); wait > 0 {
		return wait
	}
	return 0
}

// breakerSuccess closes the breaker.
func (p *Pipeline) breakerSuccess() {
	p.brMu.Lock()
	defer p.brMu.Unlock()
	p.brFailures = 0
	p.brOpenUntil = time.Time{}
}

// breakerFailure records one failure, tripping the breaker at the threshold.
func (p *Pipeline) breakerFailure() {
	p.brMu.Lock()
	defer p.brMu.Unlock()
	p.brFailures++
	if p.brFailures >= p.cfg.BreakerThreshold {
		p.brOpenUntil = time.Now().Add(p.cfg.BreakerCooldown)
		p.brFailures = 0
		p.brTripped.Add(1)
		p.cfg.Log.Warn("alerting: circuit breaker open",
			"cooldown", p.cfg.BreakerCooldown)
	}
}
