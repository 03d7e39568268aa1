package alerting_test

// Fault-injection tests for the asynchronous notification pipeline. The
// tests live in an external test package so they can use the shared
// internal/faultinject harness (which itself imports alerting).
//
// Synchronization policy: no fixed sleeps. Every test waits for the pipeline
// to settle — Drain (every accepted event delivered or dropped), Close, or
// BlockingNotifier.Started — and then reads the fake notifier and Stats, so
// the suite is deterministic under -race and -count=2.

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"testing"
	"time"

	"opprentice/internal/alerting"
	"opprentice/internal/faultinject"
)

func quietCfg() alerting.PipelineConfig {
	return alerting.PipelineConfig{
		BaseDelay:       time.Millisecond,
		MaxDelay:        4 * time.Millisecond,
		BreakerCooldown: 5 * time.Millisecond,
		Log:             slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// drain blocks until every accepted event has resolved: delivered or
// dropped.
func drain(t *testing.T, p *alerting.Pipeline) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func event(series string) alerting.Event {
	return alerting.Event{Series: series, State: "open", Start: time.Now(), Points: 1}
}

func TestFaultPipelineRetriesFlakyNotifier(t *testing.T) {
	n := &faultinject.FlakyNotifier{FailFirst: 3}
	p := alerting.NewPipeline(n, quietCfg())
	defer p.Close()

	start := time.Now()
	if err := p.Notify(context.Background(), event("pv")); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Notify blocked for %v; must be non-blocking", d)
	}
	drain(t, p)
	if got := n.Attempts(); got != 4 {
		t.Errorf("attempts = %d, want 4 (3 failures + 1 success)", got)
	}
	st := p.Stats()
	if st.Delivered != 1 || st.Retried != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want delivered=1 retried=3 dropped=0", st)
	}
	// Exactly once: the event resolved, so no further delivery may happen.
	if got := len(n.Delivered()); got != 1 {
		t.Errorf("delivered %d times, want exactly 1", got)
	}
}

func TestFaultPipelineDropsAfterMaxAttempts(t *testing.T) {
	n := &faultinject.FailingNotifier{Err: errors.New("permanently down")}
	cfg := quietCfg()
	cfg.MaxAttempts = 3
	p := alerting.NewPipeline(n, cfg)
	defer p.Close()

	p.Notify(context.Background(), event("pv"))
	drain(t, p)
	st := p.Stats()
	if st.Delivered != 0 || st.Retried != 2 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want delivered=0 retried=2 dropped=1", st)
	}
	if n.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3", n.Attempts())
	}
}

func TestFaultPipelineQueueFullDropsNewest(t *testing.T) {
	n := faultinject.NewBlockingNotifier()
	defer n.Unblock()
	cfg := quietCfg()
	cfg.QueueSize = 1
	cfg.AttemptTimeout = time.Minute
	p := alerting.NewPipeline(n, cfg)
	defer p.Close()

	ctx := context.Background()
	// First event is picked up by the worker and blocks inside Notify.
	p.Notify(ctx, event("a"))
	select {
	case <-n.Started():
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the worker to block in Notify")
	}
	// Second fills the queue; third must be rejected without blocking.
	if err := p.Notify(ctx, event("b")); err != nil {
		t.Fatalf("queued Notify: %v", err)
	}
	start := time.Now()
	err := p.Notify(ctx, event("c"))
	if !errors.Is(err, alerting.ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("overflow Notify took %v; must not block", d)
	}
	if st := p.Stats(); st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
}

func TestFaultPipelineCircuitBreakerTrips(t *testing.T) {
	n := &faultinject.FailingNotifier{}
	cfg := quietCfg()
	cfg.MaxAttempts = 4
	cfg.BreakerThreshold = 4
	cfg.BreakerCooldown = time.Hour // long enough to observe open state
	p := alerting.NewPipeline(n, cfg)
	defer p.Close()

	p.Notify(context.Background(), event("pv"))
	// The 4th consecutive failure trips the breaker and exhausts the attempt
	// budget, so the event resolves (dropped) with the breaker open.
	drain(t, p)
	if st := p.Stats(); st.Delivered != 0 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want delivered=0 dropped=1", st)
	}
	if got := p.Stats().BreakerTrips; got < 1 {
		t.Errorf("breaker trips = %d, want >= 1", got)
	}
	if !p.BreakerOpen() {
		t.Error("breaker should be open after threshold consecutive failures")
	}
}

func TestFaultPipelineSandboxesPanickingNotifier(t *testing.T) {
	cfg := quietCfg()
	cfg.MaxAttempts = 2
	p := alerting.NewPipeline(faultinject.PanickingNotifier{}, cfg)
	defer p.Close()

	p.Notify(context.Background(), event("pv"))
	drain(t, p)
	if st := p.Stats(); st.Dropped != 1 || st.Retried != 1 {
		t.Errorf("stats = %+v, want dropped=1 retried=1 (panic treated as failure)", st)
	}
}

func TestFaultPipelineCloseDropsQueued(t *testing.T) {
	n := faultinject.NewBlockingNotifier()
	defer n.Unblock()
	cfg := quietCfg()
	cfg.QueueSize = 8
	cfg.AttemptTimeout = 10 * time.Millisecond
	p := alerting.NewPipeline(n, cfg)

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		p.Notify(ctx, event("pv"))
	}
	p.Close() // must not hang; queued events become drops
	// Every accepted event resolved exactly once, all as drops: the notifier
	// never returned success.
	if st := p.Stats(); st.Enqueued != 5 || st.Delivered != 0 || st.Dropped != st.Enqueued {
		t.Errorf("stats = %+v, want enqueued=5 delivered=0 dropped=5", st)
	}
	if err := p.Notify(ctx, event("pv")); !errors.Is(err, alerting.ErrPipelineClosed) {
		t.Errorf("Notify after Close = %v, want ErrPipelineClosed", err)
	}
}

func TestFaultPipelineDrain(t *testing.T) {
	n := &faultinject.FlakyNotifier{FailFirst: 2}
	p := alerting.NewPipeline(n, quietCfg())
	defer p.Close()
	p.Notify(context.Background(), event("pv"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := len(n.Delivered()); got != 1 {
		t.Errorf("delivered = %d after Drain, want 1", got)
	}
}
