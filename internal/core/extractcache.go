package core

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"opprentice/internal/detectors"
	"opprentice/internal/timeseries"
)

// This file implements the incremental feature-extraction cache that turns
// weekly retrain extraction from O(full history) into O(new points), the
// amortization §7 of the paper relies on ("the feature extraction ... is
// computed incrementally for only the new data"). A FeatureCache checkpoints,
// per detector configuration, the severity column extracted so far — in the
// NaN→0 form training consumes, the only form any reader wants — plus a clone
// of the detector's streaming state positioned after the last extracted
// point. The next extraction validates that the cached prefix is unchanged
// (append-only check via a content hash), resumes every checkpointed detector
// over just the new tail, and re-extracts cold only the columns for which
// resumption is impossible:
//
//   - a configuration that is not a detectors.Cloner (cannot checkpoint),
//   - a configuration that was degraded (panicked) last time — re-attempted
//     cold, which for a deterministic panic reproduces the all-zero column,
//   - a Trainable configuration whose fit window changed (its severities
//     depend on the fitted parameters, so the whole column must be re-derived
//     — the only recompute the paper's semantics force).
//
// Incremental output is guaranteed bit-identical to the NaN→0 image of a cold
// Extract over the same series (asserted property-style in
// TestExtractIncrementalMatchesCold):
// Clone is a faithful deep copy and detectors are deterministic, so resuming
// from the checkpoint replays exactly the severities a cold run would reach.

// FNV-1a 64-bit parameters for the append-only prefix hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashValues extends an FNV-1a hash over the bit patterns of vals. FNV is a
// running hash, so the cache can extend its prefix hash with just the new
// tail while validation re-hashes the prefix it claims to cover.
func hashValues(h uint64, vals []float64) uint64 {
	for _, v := range vals {
		b := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			h ^= b & 0xff
			h *= fnvPrime64
			b >>= 8
		}
	}
	return h
}

// stateBytesEstimate approximates the heap footprint of one checkpointed
// detector state (rings, seasonal profiles, MRA lag buffers). The severity
// columns are accounted exactly; states are O(detector window), bounded by
// the wavelet MRA's ~64 KiB worst case, and this flat estimate keeps the
// accounting conservative without a per-detector sizing protocol — very
// conservative: over the paper's registry it sums to 2.1 MB per series
// against ≈ 0.25 MB measured, more than a nine-week hourly matrix.
const stateBytesEstimate = 16 << 10

// CacheBudget is the shared memory accounting and metrics sink for one or
// more FeatureCaches (the engine gives all series one budget). All methods
// are safe for concurrent use.
type CacheBudget struct {
	capBytes          int64
	bytes             atomic.Int64
	invalidations     atomic.Int64
	coldPoints        atomic.Int64
	incrementalPoints atomic.Int64
}

// NewCacheBudget returns a budget capped at capBytes; capBytes <= 0 means
// unlimited.
func NewCacheBudget(capBytes int64) *CacheBudget {
	return &CacheBudget{capBytes: capBytes}
}

// CacheStats is a point-in-time snapshot of a budget's accounting.
type CacheStats struct {
	// Bytes is the current accounted cache footprint; CapBytes the configured
	// cap (0 = unlimited).
	Bytes, CapBytes int64
	// Invalidations counts whole-cache invalidations (prefix mismatch,
	// configuration change, cap overflow, explicit Invalidate).
	Invalidations int64
	// ColdPoints / IncrementalPoints count (point × configuration) severity
	// computations by extraction mode.
	ColdPoints, IncrementalPoints int64
}

// Stats returns the budget's current counters.
func (b *CacheBudget) Stats() CacheStats {
	return CacheStats{
		Bytes:             b.bytes.Load(),
		CapBytes:          b.capBytes,
		Invalidations:     b.invalidations.Load(),
		ColdPoints:        b.coldPoints.Load(),
		IncrementalPoints: b.incrementalPoints.Load(),
	}
}

// FeatureCache checkpoints one series' extraction state across retrain
// rounds: the severity columns with NaN already replaced by 0 (so retraining
// never materializes an imputed matrix), and one cloned detector per
// configuration positioned after the last extracted point. Safe for concurrent use; extraction rounds against the same cache
// serialize on its mutex.
type FeatureCache struct {
	budget *CacheBudget

	mu       sync.Mutex
	valid    bool
	names    []string
	n        int                  // points covered
	fitN     int                  // Trainable fit window used for the cached columns
	hash     uint64               // FNV-1a over Values[:n] bit patterns
	cols     [][]float64          // NaN→0 severities, cols[j][i]
	states   []detectors.Detector // advanced checkpoint clone; nil = cold next time
	degraded []bool
	bytes    int64 // currently accounted against budget
}

// NewFeatureCache returns an empty cache accounting against budget (nil gets
// a private unlimited budget).
func NewFeatureCache(budget *CacheBudget) *FeatureCache {
	if budget == nil {
		budget = NewCacheBudget(0)
	}
	return &FeatureCache{budget: budget}
}

// Len returns how many points the cache currently covers (0 when invalid).
func (c *FeatureCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid {
		return 0
	}
	return c.n
}

// Bytes returns the cache's currently accounted footprint.
func (c *FeatureCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Invalidate drops all cached state; the next extraction runs cold.
func (c *FeatureCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidateLocked()
}

// invalidateLocked releases the cache's budget share and clears it. Callers
// hold c.mu.
func (c *FeatureCache) invalidateLocked() {
	if c.valid {
		c.budget.invalidations.Add(1)
	}
	c.budget.bytes.Add(-c.bytes)
	c.bytes = 0
	c.valid = false
	c.names, c.cols, c.states, c.degraded = nil, nil, nil, nil
	c.n, c.fitN, c.hash = 0, 0, 0
}

// namesEqual reports whether two configuration name lists are identical.
func namesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ExtractIncremental is Extract with an O(new points) fast path: columns
// whose streaming state was checkpointed in cache resume over only the tail
// appended since the last extraction, and the cache is re-checkpointed after
// the new last point. A nil cache degrades to a plain cold Extract.
//
// The second return value is a detector set positioned after the series' last
// point — cold-extracted columns return the caller's own (now advanced)
// instance, resumed columns return a fresh clone of the advanced checkpoint —
// which is exactly what a replacement Monitor needs as its live detector set.
// Degraded columns return the caller's instance untouched (the monitor marks
// them dead and never steps them).
//
// The returned Features holds the matrix in the form training consumes —
// not-ready and NaN severities already read 0 — and is bit-identical to the
// NaN→0 image of a cold Extract over the same series and config; its columns
// alias the cache's storage, so treat them as read-only. The cache validates its prefix by content hash before reuse and
// invalidates itself wholesale on any mismatch (series truncated or rewritten,
// configuration set changed) or when the shared budget cap is exceeded after
// an update — the fallback is always a correct cold extraction.
func ExtractIncremental(cache *FeatureCache, s *timeseries.Series, ds []detectors.Detector, cfg ExtractConfig) (*Features, []detectors.Detector, error) {
	if cache == nil {
		f, err := Extract(s, ds, cfg)
		return f, ds, err
	}
	fitN, workers, err := extractParams(s, cfg)
	if err != nil {
		return nil, nil, err
	}

	cache.mu.Lock()
	defer cache.mu.Unlock()

	names := detectors.Names(ds)
	n := s.Len()

	// Prefix validation: same configurations, a prefix no longer than the
	// series, and matching content hash (the engine is append-only, so any
	// other history mutation must invalidate).
	reuse := cache.valid && cache.n <= n && namesEqual(cache.names, names)
	prefixHash := uint64(fnvOffset64)
	if reuse {
		prefixHash = hashValues(fnvOffset64, s.Values[:cache.n])
		reuse = prefixHash == cache.hash
		if !reuse {
			prefixHash = fnvOffset64
		}
	}
	if cache.valid && !reuse {
		cache.invalidateLocked()
	}

	tail := s.Values
	if reuse {
		tail = s.Values[cache.n:]
	}

	type colResult struct {
		col   []float64
		state detectors.Detector
		ok    bool
		cold  bool
	}
	results := make([]colResult, len(ds))
	outDets := make([]detectors.Detector, len(ds))

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for j, d := range ds {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int, d detectors.Detector) {
			defer wg.Done()
			defer func() { <-sem }()
			r := &results[j]
			_, isTrainable := d.(detectors.Trainable)
			cold := !reuse || cache.states[j] == nil || (isTrainable && cache.fitN != fitN)
			if cold {
				r.cold = true
				r.col, r.ok = extractColumn(s, d, fitN)
				imputeInPlace(r.col)
				outDets[j] = d
				if r.ok {
					if cl, can := d.(detectors.Cloner); can {
						r.state = cl.Clone()
					}
				}
				return
			}
			// Resume the checkpointed state over the new tail only.
			r.col, r.ok = extendColumn(cache.cols[j], cache.states[j], tail, n)
			if r.ok {
				r.state = cache.states[j]
				outDets[j] = r.state.(detectors.Cloner).Clone()
			} else {
				outDets[j] = d
			}
		}(j, d)
	}
	wg.Wait()

	// Commit the round into the cache and assemble the caller's view (the
	// Features columns alias the cache's storage; the monitor paths only read
	// them).
	if !cache.valid {
		cache.valid = true
		cache.names = names
		cache.cols = make([][]float64, len(ds))
		cache.states = make([]detectors.Detector, len(ds))
		cache.degraded = make([]bool, len(ds))
	}
	f := &Features{Names: names, Cols: make([][]float64, len(ds)), imputed: true}
	var coldPts, incPts int64
	for j := range ds {
		r := &results[j]
		cache.cols[j] = r.col
		cache.states[j] = r.state
		cache.degraded[j] = !r.ok
		f.Cols[j] = r.col
		if !r.ok {
			f.Degraded = append(f.Degraded, names[j])
		}
		if r.cold {
			coldPts += int64(n)
		} else {
			incPts += int64(len(tail))
		}
	}
	sort.Strings(f.Degraded)
	cache.n = n
	cache.fitN = fitN
	cache.hash = hashValues(prefixHash, tail)

	// Budget accounting, then the whole-cache invalidation fallback when the
	// shared cap is exceeded: the extraction results stay valid (f keeps the
	// slices alive), but the next round runs cold instead of growing past the
	// cap.
	var bytes int64
	for j := range cache.cols {
		bytes += int64(cap(cache.cols[j])) * 8
		if cache.states[j] != nil {
			bytes += stateBytesEstimate
		}
	}
	cache.budget.bytes.Add(bytes - cache.bytes)
	cache.bytes = bytes
	cache.budget.coldPoints.Add(coldPts)
	cache.budget.incrementalPoints.Add(incPts)
	if limit := cache.budget.capBytes; limit > 0 && cache.budget.bytes.Load() > limit {
		cache.invalidateLocked()
	}
	return f, outDets, nil
}

// extendColumn appends the tail's severities (0 for not-ready or NaN) to a
// cached column by resuming the checkpointed detector state. A panic anywhere
// degrades the whole column to all zeros — exactly the NaN→0 image of what a
// cold re-extraction of a deterministically panicking detector would produce
// — and ok is false. total is the final column length (len(col) + len(tail)).
func extendColumn(col []float64, d detectors.Detector, tail []float64, total int) (out []float64, ok bool) {
	out = slices.Grow(col, len(tail))[:total]
	if _, r := stepColumn(d, false, nil, tail, out[len(col):], 1, 0); r != nil {
		return make([]float64, total), false // all zeros: "no evidence"
	}
	imputeInPlace(out[len(col):])
	return out, true
}
