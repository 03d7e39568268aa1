package core

// Tests for the incremental feature-extraction cache: the contract is that
// ExtractIncremental is BIT-identical to the NaN→0 image of a cold Extract
// (what training consumes) over the same series and configuration set, no matter how the history was split into appends,
// which detectors can checkpoint, which ones panic, and whether the Trainable
// fit window moved between rounds.

import (
	"math"
	"math/rand"
	"testing"

	"opprentice/internal/detectors"
	"opprentice/internal/faultinject"
	"opprentice/internal/timeseries"
)

// cacheRegistry is smallRegistry plus the two interesting extremes: a
// Trainable detector (ARIMA — recomputed cold whenever its fit window
// changes) and a deterministically panicking one (degraded to all-NaN on
// both paths).
func cacheRegistry(t *testing.T) []detectors.Detector {
	t.Helper()
	return append(smallRegistry(t),
		detectors.NewARIMA(1, 1, 1),
		detectors.Detector(&faultinject.PanickingDetector{ConfigName: "boom(mid)", PanicAfter: 60}),
	)
}

// prefix returns a fresh series holding the first n points of full.
func prefix(full *timeseries.Series, n int) *timeseries.Series {
	s := timeseries.New(full.Name, full.Start, full.Interval)
	for _, v := range full.Values[:n] {
		s.Append(v)
	}
	return s
}

// coldImputed is the oracle: a cold Extract over s, imputed in place.
func coldImputed(t *testing.T, s *timeseries.Series, ds []detectors.Detector) *Features {
	t.Helper()
	cold, err := Extract(s, ds, ExtractConfig{})
	if err != nil {
		t.Fatalf("Extract at n=%d: %v", s.Len(), err)
	}
	cold.ImputedFull()
	return cold
}

// sameBits fails the test unless a and b match bit for bit (NaNs produced by
// math.NaN() share a payload, so Float64bits equality covers them too).
func sameBits(t *testing.T, context string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", context, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: point %d: incremental %v (bits %x) vs cold %v (bits %x)",
				context, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// TestExtractIncrementalMatchesCold is the property test: a series revealed
// in random append-sized chunks and extracted incrementally must yield, at
// every step, exactly the NaN→0 matrix a cold extraction of the same prefix
// produces. The splits deliberately start below the 8-week fit cap so the
// ARIMA fit window changes across rounds (forcing its cold-recompute path)
// and include a mid-stream panicking configuration (degraded on both paths).
func TestExtractIncrementalMatchesCold(t *testing.T) {
	full, _ := testKPI(t, 12, 42)
	rng := rand.New(rand.NewSource(9))

	// Random cumulative lengths from 5 complete weeks to the full series.
	ppw := 168
	cuts := []int{5 * ppw}
	for cuts[len(cuts)-1] < full.Len() {
		next := cuts[len(cuts)-1] + 1 + rng.Intn(2*ppw)
		if next > full.Len() {
			next = full.Len()
		}
		cuts = append(cuts, next)
	}

	cache := NewFeatureCache(nil)
	for _, n := range cuts {
		s := prefix(full, n)
		inc, outDets, err := ExtractIncremental(cache, s, cacheRegistry(t), ExtractConfig{})
		if err != nil {
			t.Fatalf("ExtractIncremental at n=%d: %v", n, err)
		}
		cold := coldImputed(t, prefix(full, n), cacheRegistry(t))
		if len(inc.Cols) != len(cold.Cols) {
			t.Fatalf("n=%d: %d vs %d columns", n, len(inc.Cols), len(cold.Cols))
		}
		for j := range inc.Cols {
			sameBits(t, inc.Names[j], inc.Cols[j], cold.Cols[j])
		}
		// Degraded sets agree: the panicking configuration degrades on both
		// paths, every round.
		if len(inc.Degraded) != 1 || inc.Degraded[0] != "boom(mid)" {
			t.Fatalf("n=%d: incremental Degraded = %v", n, inc.Degraded)
		}
		if len(cold.Degraded) != 1 || cold.Degraded[0] != "boom(mid)" {
			t.Fatalf("n=%d: cold Degraded = %v", n, cold.Degraded)
		}
		// One matrix: ImputedFull hands back the columns just compared.
		if imp := inc.ImputedFull(); &imp[0][0] != &inc.Cols[0][0] {
			t.Fatalf("n=%d: ImputedFull materialized a second matrix", n)
		}
		if outDets == nil || len(outDets) != len(inc.Cols) {
			t.Fatalf("n=%d: outDets length %d", n, len(outDets))
		}
		if !cache.valid || cache.n != n {
			t.Fatalf("n=%d: cache covers %d points (valid %v)", n, cache.n, cache.valid)
		}
	}

	// The rounds after the first must have actually taken the fast path.
	st := cache.budget.Stats()
	if st.IncrementalPoints == 0 {
		t.Fatal("no incremental points: every round ran cold")
	}
	if st.ColdPoints == 0 {
		t.Fatal("no cold points: the first round must seed the cache cold")
	}
}

// TestExtractIncrementalReturnedDetectorsAreLive checks outDets: each
// non-degraded returned detector must be positioned exactly after the last
// extracted point, so stepping it over the next value reproduces what a
// cold extraction of the longer series computes at that index.
func TestExtractIncrementalReturnedDetectorsAreLive(t *testing.T) {
	full, _ := testKPI(t, 10, 7)
	n := full.Len() - 1 // one spare point to step; week count unchanged

	cache := NewFeatureCache(nil)
	ds := smallRegistry(t)
	if _, _, err := ExtractIncremental(cache, prefix(full, n-200), ds, ExtractConfig{}); err != nil {
		t.Fatal(err)
	}
	_, outDets, err := ExtractIncremental(cache, prefix(full, n), ds, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Extract(prefix(full, n+1), smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	next := full.Values[n]
	for j, d := range outDets {
		sev, ready := d.Step(next)
		want := cold.Cols[j][n]
		if !ready {
			if !math.IsNaN(want) {
				t.Errorf("%s: live detector not ready but cold severity %v", cold.Names[j], want)
			}
			continue
		}
		if math.Float64bits(sev) != math.Float64bits(want) {
			t.Errorf("%s: live step %v, cold %v", cold.Names[j], sev, want)
		}
	}
}

// TestExtractIncrementalInvalidatesOnPrefixChange: rewriting or truncating
// history (anything but an append) must be caught by the content hash and
// fall back to a correct cold extraction.
func TestExtractIncrementalInvalidatesOnPrefixChange(t *testing.T) {
	full, _ := testKPI(t, 9, 3)
	cache := NewFeatureCache(nil)
	ds := smallRegistry(t)
	if _, _, err := ExtractIncremental(cache, full, ds, ExtractConfig{}); err != nil {
		t.Fatal(err)
	}

	// Rewrite one mid-series value.
	mutated := prefix(full, full.Len())
	mutated.Values[500] += 1
	inc, _, err := ExtractIncremental(cache, mutated, smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cold := coldImputed(t, prefix(mutated, mutated.Len()), smallRegistry(t))
	for j := range inc.Cols {
		sameBits(t, inc.Names[j]+" after rewrite", inc.Cols[j], cold.Cols[j])
	}
	if inv := cache.budget.Stats().Invalidations; inv != 1 {
		t.Fatalf("invalidations after rewrite = %d, want 1", inv)
	}

	// Truncation (shorter series than the cached prefix) must also invalidate.
	short := prefix(full, full.Len()-300)
	inc, _, err = ExtractIncremental(cache, short, smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cold = coldImputed(t, prefix(full, full.Len()-300), smallRegistry(t))
	for j := range inc.Cols {
		sameBits(t, inc.Names[j]+" after truncation", inc.Cols[j], cold.Cols[j])
	}
	if inv := cache.budget.Stats().Invalidations; inv != 2 {
		t.Fatalf("invalidations after truncation = %d, want 2", inv)
	}
}

// TestExtractIncrementalInvalidatesOnConfigChange: a different configuration
// set cannot reuse the cached columns.
func TestExtractIncrementalInvalidatesOnConfigChange(t *testing.T) {
	full, _ := testKPI(t, 9, 4)
	cache := NewFeatureCache(nil)
	if _, _, err := ExtractIncremental(cache, full, smallRegistry(t), ExtractConfig{}); err != nil {
		t.Fatal(err)
	}
	ds := append(smallRegistry(t), detectors.NewEWMA(0.1))
	inc, _, err := ExtractIncremental(cache, full, ds, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cold := coldImputed(t, full, append(smallRegistry(t), detectors.NewEWMA(0.1)))
	for j := range inc.Cols {
		sameBits(t, inc.Names[j]+" after config change", inc.Cols[j], cold.Cols[j])
	}
	if inv := cache.budget.Stats().Invalidations; inv != 1 {
		t.Fatalf("invalidations = %d, want 1", inv)
	}
}

// TestExtractCacheCapFallback: exceeding the shared budget cap invalidates
// the cache wholesale — the round's results stay correct, the next round
// simply runs cold — and accounting returns to zero.
func TestExtractCacheCapFallback(t *testing.T) {
	full, _ := testKPI(t, 9, 5)
	budget := NewCacheBudget(1 << 10) // 1 KiB: any real series overflows
	cache := NewFeatureCache(budget)

	inc, _, err := ExtractIncremental(cache, full, smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cold := coldImputed(t, prefix(full, full.Len()), smallRegistry(t))
	for j := range inc.Cols {
		sameBits(t, inc.Names[j]+" over cap", inc.Cols[j], cold.Cols[j])
	}
	if cache.valid {
		t.Fatalf("cache still covers %d points after cap overflow", cache.n)
	}
	st := budget.Stats()
	if st.Invalidations == 0 {
		t.Fatal("cap overflow did not count as an invalidation")
	}
	if st.Bytes != 0 {
		t.Fatalf("accounted bytes after invalidation = %d, want 0", st.Bytes)
	}
	if st.IncrementalPoints != 0 {
		t.Fatalf("incremental points with an always-overflowing cap = %d, want 0", st.IncrementalPoints)
	}
}

// TestExtractIncrementalNilCache: a nil cache must behave exactly like a
// cold Extract and return the caller's own detector instances.
func TestExtractIncrementalNilCache(t *testing.T) {
	full, _ := testKPI(t, 9, 6)
	ds := smallRegistry(t)
	inc, outDets, err := ExtractIncremental(nil, full, ds, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Extract(full, smallRegistry(t), ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range inc.Cols {
		sameBits(t, inc.Names[j]+" nil cache", inc.Cols[j], cold.Cols[j])
	}
	for j := range ds {
		if outDets[j] != ds[j] {
			t.Fatalf("nil cache returned a different detector instance at %d", j)
		}
	}
}
