package core

import (
	"fmt"
	"math"

	"opprentice/internal/detectors"
	"opprentice/internal/timeseries"
)

// VerifyAgainstCold cross-checks the cache's incremental extraction state
// against a from-scratch cold Extract over the same prefix: the incremental
// path's core guarantee is that the matrix training consumes is bit-identical
// to a cold run's, and this method is the machine-checkable form of that
// guarantee (the simulation harness calls it after every retrain). It
// re-derives the severity matrix for the first Len() points of s with fresh
// detectors ds, takes its NaN→0 image — the cache stores no warm-up markers,
// only what the learners read — and compares every cell by bit pattern, plus
// the degraded sets and the append-only prefix hash.
//
// It returns nil when the cache is empty/invalid (nothing to verify) and a
// descriptive error naming the first mismatching configuration and row
// otherwise. ds must be a freshly built detector set for s's interval; Extract
// resets it, so the caller's instances are consumed.
func (c *FeatureCache) VerifyAgainstCold(s *timeseries.Series, ds []detectors.Detector, cfg ExtractConfig) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid {
		return nil
	}
	if c.n > s.Len() {
		return fmt.Errorf("core: cache covers %d points but series has only %d", c.n, s.Len())
	}
	names := detectors.Names(ds)
	if !namesEqual(c.names, names) {
		return fmt.Errorf("core: cache configuration set (%d configs) differs from detector set (%d configs)", len(c.names), len(names))
	}
	if got := hashValues(fnvOffset64, s.Values[:c.n]); got != c.hash {
		return fmt.Errorf("core: cache prefix hash %016x does not match series prefix %016x over %d points", c.hash, got, c.n)
	}

	prefix := s.Slice(0, c.n)
	fitN, _, err := extractParams(prefix, cfg)
	if err != nil {
		return fmt.Errorf("core: cold verification extract: %w", err)
	}
	if fitN != c.fitN {
		return fmt.Errorf("core: cold fit window %d points differs from cached %d", fitN, c.fitN)
	}
	cold, err := Extract(prefix, ds, cfg)
	if err != nil {
		return fmt.Errorf("core: cold verification extract: %w", err)
	}

	coldCols := cold.ImputedFull()
	coldDegraded := make(map[string]bool, len(cold.Degraded))
	for _, name := range cold.Degraded {
		coldDegraded[name] = true
	}
	for j, name := range c.names {
		if c.degraded[j] != coldDegraded[name] {
			return fmt.Errorf("core: configuration %q degraded=%v incrementally but %v cold", name, c.degraded[j], coldDegraded[name])
		}
		cachedCol, coldCol := c.cols[j], coldCols[j]
		if len(cachedCol) != c.n || len(coldCol) != c.n {
			return fmt.Errorf("core: configuration %q column length cached=%d cold=%d want %d", name, len(cachedCol), len(coldCol), c.n)
		}
		for i := 0; i < c.n; i++ {
			if math.Float64bits(cachedCol[i]) != math.Float64bits(coldCol[i]) {
				return fmt.Errorf("core: configuration %q severity diverges at row %d: incremental %v vs cold %v",
					name, i, cachedCol[i], coldCol[i])
			}
		}
	}
	return nil
}
