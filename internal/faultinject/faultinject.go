// Package faultinject is the repo's shared fault-injection harness: small,
// deterministic wrappers that make dependencies misbehave on purpose —
// notifiers that fail N times / panic / block, detectors that panic, and
// WAL mutators that truncate or corrupt log files on disk. The fault-
// tolerance layer (core detector sandboxing, the alerting.Pipeline,
// tsdb checksums + quarantine, service restore/shutdown) is exercised with
// these from each package's tests; future chaos tests should build on this
// package instead of re-inventing ad-hoc fakes.
package faultinject

import (
	"context"
	"fmt"
	"os"
	"sync"

	"opprentice/internal/alerting"
)

// FlakyNotifier fails the first FailFirst Notify calls and succeeds
// afterwards, recording everything. It is safe for concurrent use.
type FlakyNotifier struct {
	// FailFirst is how many leading attempts fail.
	FailFirst int
	// Err is the failure returned while failing (default a generic error).
	Err error

	mu        sync.Mutex
	attempts  int
	delivered []alerting.Event
}

// Notify implements alerting.Notifier.
func (n *FlakyNotifier) Notify(_ context.Context, e alerting.Event) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.attempts++
	if n.attempts <= n.FailFirst {
		if n.Err != nil {
			return n.Err
		}
		return fmt.Errorf("faultinject: flaky notifier failing attempt %d/%d", n.attempts, n.FailFirst)
	}
	n.delivered = append(n.delivered, e)
	return nil
}

// Attempts returns how many Notify calls were made.
func (n *FlakyNotifier) Attempts() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.attempts
}

// Delivered returns a copy of the successfully delivered events.
func (n *FlakyNotifier) Delivered() []alerting.Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]alerting.Event(nil), n.delivered...)
}

// FailingNotifier always fails with Err (or a default error).
type FailingNotifier struct {
	Err error

	mu       sync.Mutex
	attempts int
}

// Notify implements alerting.Notifier.
func (n *FailingNotifier) Notify(context.Context, alerting.Event) error {
	n.mu.Lock()
	n.attempts++
	n.mu.Unlock()
	if n.Err != nil {
		return n.Err
	}
	return fmt.Errorf("faultinject: notifier permanently down")
}

// Attempts returns how many Notify calls were made.
func (n *FailingNotifier) Attempts() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.attempts
}

// PanickingNotifier panics on every Notify — the rudest possible dependency.
type PanickingNotifier struct {
	// Message is the panic value (default "faultinject: notifier panic").
	Message string
}

// Notify implements alerting.Notifier by panicking.
func (n PanickingNotifier) Notify(context.Context, alerting.Event) error {
	msg := n.Message
	if msg == "" {
		msg = "faultinject: notifier panic"
	}
	panic(msg)
}

// BlockingNotifier blocks every Notify until Release is closed (or the
// context is canceled), simulating a hung webhook endpoint.
type BlockingNotifier struct {
	// Release unblocks all in-flight and future calls when closed.
	Release chan struct{}

	started chan struct{}
}

// NewBlockingNotifier returns a notifier whose deliveries hang until
// Unblock.
func NewBlockingNotifier() *BlockingNotifier {
	return &BlockingNotifier{
		Release: make(chan struct{}),
		started: make(chan struct{}, 64),
	}
}

// Notify implements alerting.Notifier.
func (n *BlockingNotifier) Notify(ctx context.Context, _ alerting.Event) error {
	select {
	case n.started <- struct{}{}:
	default:
	}
	select {
	case <-n.Release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Started yields one receive per Notify call as it begins blocking, so tests
// can wait for "the worker is stuck inside delivery" without polling.
func (n *BlockingNotifier) Started() <-chan struct{} { return n.started }

// Unblock releases all current and future deliveries.
func (n *BlockingNotifier) Unblock() { close(n.Release) }

// PanickingDetector implements detectors.Detector and panics on Step after
// PanicAfter successful calls (0 = panic on the very first Step). Reset does
// not clear the call count, so a panicking configuration stays panicky
// across extraction rounds — like a real buggy detector would.
type PanickingDetector struct {
	// ConfigName is returned by Name (default "faulty(panic)").
	ConfigName string
	// PanicAfter is how many Steps succeed before panicking.
	PanicAfter int
	// Severity is what every successful Step reports.
	Severity float64

	calls int
}

// Name implements detectors.Detector.
func (d *PanickingDetector) Name() string {
	if d.ConfigName == "" {
		return "faulty(panic)"
	}
	return d.ConfigName
}

// Step implements detectors.Detector; it panics once the call budget is
// exhausted.
func (d *PanickingDetector) Step(float64) (float64, bool) {
	d.calls++
	if d.calls > d.PanicAfter {
		panic(fmt.Sprintf("faultinject: detector %s panicking on call %d", d.Name(), d.calls))
	}
	return d.Severity, true
}

// Reset implements detectors.Detector.
func (d *PanickingDetector) Reset() {}

// WAL / file mutators. These operate on paths, not tsdb types, so they work
// on any log-structured file.

// TruncateTail removes the last n bytes of the file (simulating a crash
// mid-write).
func TruncateTail(path string, n int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// FlipByte XOR-flips the byte at offset (negative = from the end), the
// classic single-bit-rot fault.
func FlipByte(path string, offset int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if offset < 0 {
		info, err := f.Stat()
		if err != nil {
			return err
		}
		offset += info.Size()
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, offset); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b, offset)
	return err
}

// AppendGarbage appends raw bytes (default: a plausible-but-broken record)
// to the file.
func AppendGarbage(path string, garbage []byte) error {
	if garbage == nil {
		garbage = []byte("deadbeef {\"kind\":\"points\",\"values\":[1.0,2\n")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(garbage)
	return err
}

// StallGate is a reusable block-until-released gate for simulating hung
// dependencies (a disk that stops completing writes, a trainer that never
// returns). Arm blocks every subsequent Wait until Release; a disarmed gate
// costs one mutex acquisition and never blocks. Arm/Release are idempotent
// and the gate can be re-armed after a release.
type StallGate struct {
	mu   sync.Mutex
	gate chan struct{} // non-nil while armed; closed on release
}

// Arm makes Wait block until the next Release.
func (g *StallGate) Arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate == nil {
		g.gate = make(chan struct{})
	}
}

// Release unblocks every current and future Wait until the next Arm.
func (g *StallGate) Release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
}

// Armed reports whether Wait would currently block.
func (g *StallGate) Armed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gate != nil
}

// Wait blocks while the gate is armed.
func (g *StallGate) Wait() {
	g.mu.Lock()
	ch := g.gate
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// StallingDetector implements detectors.Detector by blocking on a StallGate
// at every Step: while the gate is armed, any training round extracting with
// this configuration hangs exactly like a wedged native detector would.
// Disarmed it contributes a constant feature and costs nothing.
type StallingDetector struct {
	// ConfigName is returned by Name (default "faulty(stall)").
	ConfigName string
	// Gate controls the blocking; a nil gate never blocks.
	Gate *StallGate
}

// Name implements detectors.Detector.
func (d *StallingDetector) Name() string {
	if d.ConfigName == "" {
		return "faulty(stall)"
	}
	return d.ConfigName
}

// Step implements detectors.Detector, blocking while the gate is armed.
func (d *StallingDetector) Step(float64) (float64, bool) {
	if d.Gate != nil {
		d.Gate.Wait()
	}
	return 0, true
}

// Reset implements detectors.Detector.
func (d *StallingDetector) Reset() {}
