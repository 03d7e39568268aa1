// Package active is the label-efficiency subsystem: uncertainty sampling and
// concept-drift detection over the forest's streaming vote fractions.
//
// Opprentice (§4.2) assumes operators label every anomaly window and the
// engine retrains on a fixed weekly tick. "Little Help Makes a Big
// Difference" (arXiv:2201.10323) shows uncertainty-driven querying reaches
// comparable accuracy from a fraction of the labels. This package provides
// the two per-series pieces the engine wires onto its ingest hot path:
//
//   - A bounded query queue of the windows the forest is least certain
//     about — points whose vote fraction falls within a configurable band
//     around the live cThld, deduplicated into candidate windows, with the
//     lowest-scoring window evicted when the queue is full so it always
//     holds the top-K most uncertain windows of the current retrain period.
//   - A drift detector comparing the live vote-fraction distribution
//     against a reference histogram captured right after (re)training,
//     using the Population Stability Index with hysteresis, so retrains
//     can fire when the forest's view of the data actually shifts instead
//     of waiting for the weekly tick.
//
// Both are built from fixed-size arrays sized at construction: Observe is
// allocation-free, preserving the engine's zero-alloc trained append pins.
// State is not internally synchronized — the engine calls it under the
// series' single-writer mutex.
package active

// Config tunes a per-series State. Zero values pick defaults; negative
// values disable the corresponding half (queries or drift) entirely.
type Config struct {
	// Band is the uncertainty half-width around the live cThld: a point
	// whose vote fraction p satisfies |p−cThld| ≤ Band is a query
	// candidate. Default 0.1; negative disables the query queue.
	Band float64
	// Depth is the queue capacity in windows (top-K retained). Default 8;
	// negative disables the query queue.
	Depth int
	// DriftThreshold is the PSI value one comparison window must meet or
	// exceed to count as a drift strike. Default 0.25 (the conventional
	// "significant shift" PSI level); negative disables drift detection.
	DriftThreshold float64
	// DriftWindow is how many trained verdicts fill one histogram window:
	// the first window after a (re)train becomes the reference, each
	// subsequent one is compared against it. Default 288 (one day at
	// 5-minute sampling); the engine overrides it with the series' actual
	// points-per-day. Values below MinDriftWindow are raised to it.
	DriftWindow int
}

// Defaults, exported so the engine and CLI flag help can state them.
const (
	DefaultBand           = 0.1
	DefaultDepth          = 8
	DefaultDriftThreshold = 0.25
	DefaultDriftWindow    = 288
	// MinDriftWindow floors the histogram window: PSI over fewer points is
	// all smoothing noise.
	MinDriftWindow = 48
)

// withDefaults resolves the zero-means-default, negative-means-disabled
// convention the engine's Config uses throughout.
func (c Config) withDefaults() Config {
	if c.Band == 0 {
		c.Band = DefaultBand
	}
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = DefaultDriftThreshold
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = DefaultDriftWindow
	}
	if c.DriftWindow < MinDriftWindow {
		c.DriftWindow = MinDriftWindow
	}
	return c
}

// State is one series' active-learning state: query queue + drift detector.
// All methods must be called under the owning series' mutex.
type State struct {
	queue queue
	drift detector
}

// NewState builds a State for one series. It returns nil when cfg disables
// both the query queue and the drift detector, so callers can keep a single
// nil check on the hot path.
func NewState(cfg Config) *State {
	cfg = cfg.withDefaults()
	queries := cfg.Band > 0 && cfg.Depth > 0
	drifts := cfg.DriftThreshold > 0
	if !queries && !drifts {
		return nil
	}
	s := &State{}
	if queries {
		s.queue.init(cfg.Band, cfg.Depth)
	}
	if drifts {
		s.drift.init(cfg.DriftThreshold, cfg.DriftWindow)
	}
	return s
}

// Observe feeds one trained verdict — the point's series index, its forest
// vote fraction, and the cThld applied — into both halves. Allocation-free.
func (s *State) Observe(index int, prob, cthld float64) {
	s.queue.observe(index, prob, cthld)
	s.drift.observe(prob)
}

// TakeDrift consumes the drift latch: it reports whether the detector has
// seen two consecutive over-threshold windows since the last take,
// and clears the latch so one drift episode arms at most one retrain.
func (s *State) TakeDrift() bool { return s.drift.take() }

// DriftScore returns the PSI of the most recently completed comparison
// window (0 until the first one completes after a reference is captured).
func (s *State) DriftScore() float64 { return s.drift.score }

// Reset clears both halves for a new model generation: the queue empties
// (its windows were scored by the outgoing model) and the drift detector
// starts capturing a fresh reference. The engine calls it at every monitor
// swap — retrain, warm restore, and rollback alike.
func (s *State) Reset() {
	s.queue.reset()
	s.drift.reset()
}

// Window is one pending query: the half-open point-index range [Start, End)
// the forest is least certain about, its uncertainty score in (0, 1] (1 =
// vote fraction exactly at cThld), and how many in-band points it covers.
type Window struct {
	Start  int
	End    int
	Score  float64
	Points int
}

// Depth returns the number of pending query windows.
func (s *State) Depth() int { return len(s.queue.win) }

// Windows appends the pending query windows to buf, most uncertain first,
// and returns it. The result is a copy: it stays valid after the series
// mutex is released.
func (s *State) Windows(buf []Window) []Window { return s.queue.snapshot(buf) }

// Remove drops the pending query exactly matching [start, end) and reports
// whether it was present. An answered query must not be surfaced again.
func (s *State) Remove(start, end int) bool { return s.queue.remove(start, end) }
