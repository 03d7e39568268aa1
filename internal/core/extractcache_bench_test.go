package core

// Retrain extraction cost, cold vs incremental — the PR's headline number.
// Both arms run the full paper-scale detector registry (§4.3, 14 detectors /
// 100+ configurations) over hourly data:
//
//   - cold:        re-extracts 13 weeks of history from scratch, the way
//                  every weekly retrain worked before the cache (includes the
//                  Trainable ARIMA refit).
//   - incremental: appends one week onto 12 weeks of already-cached history
//                  and extracts only the new tail (the cache grows across
//                  iterations, so every iteration is a realistic
//                  week-over-week retrain).
//
// The benchmark fails when cold ÷ incremental drops below
// retrainSpeedupFloor — the ratio, not the absolute ns/op, so the check is
// machine-independent. `make bench-smoke` runs it at -benchtime 20x.

import (
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/timeseries"
)

// benchDataSeed pins the kpigen RNG for every series this benchmark
// generates. Seed policy (see DESIGN.md "Seeds and reproducibility"): bench
// fixtures behind a ratio floor must use a fixed, named seed so the
// cold/incremental ratio is comparable across runs and machines; changing
// the seed means re-measuring retrainSpeedupFloor.
const benchDataSeed int64 = 17

// retrainSpeedupFloor is the least cold ÷ incremental extraction speedup
// the feature cache must buy: 10 % under the 8× the cache was accepted at
// (7.8–10.4× over ten runs at -benchtime 20x). With the cache bypassed the
// ratio is ~1.
const retrainSpeedupFloor = 7.2

// benchSeries generates `weeks` of hourly PV data from the pinned seed.
func benchSeries(b *testing.B, weeks int) *timeseries.Series {
	b.Helper()
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = weeks
	return kpigen.Generate(p, benchDataSeed).Series
}

// benchRegistry returns a fresh full paper registry for hourly data.
func benchRegistry(b *testing.B) []detectors.Detector {
	b.Helper()
	ds, err := detectors.Registry(time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkRetrainColdVsIncremental(b *testing.B) {
	const (
		ppw       = 168 // hourly points per week
		histWeeks = 13
	)
	var coldNs, incNs float64 // ns/op of each leg's last (longest) run

	b.Run("cold", func(b *testing.B) {
		full := benchSeries(b, histWeeks)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Extract(full, benchRegistry(b), ExtractConfig{}); err != nil {
				b.Fatal(err)
			}
		}
		coldNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	b.Run("incremental", func(b *testing.B) {
		full := benchSeries(b, histWeeks)
		// Seed the cache with all but the last week (one cold round, untimed).
		s := timeseries.New(full.Name, full.Start, full.Interval)
		for _, v := range full.Values[:(histWeeks-1)*ppw] {
			s.Append(v)
		}
		cache := NewFeatureCache(nil)
		if _, _, err := ExtractIncremental(cache, s, benchRegistry(b), ExtractConfig{}); err != nil {
			b.Fatal(err)
		}
		week := full.Values[(histWeeks-1)*ppw:] // cycled tail for the appended weeks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range week {
				s.Append(v)
			}
			if _, _, err := ExtractIncremental(cache, s, benchRegistry(b), ExtractConfig{}); err != nil {
				b.Fatal(err)
			}
		}
		incNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	// Both legs ran (a -bench filter naming one leg skips the check).
	if coldNs > 0 && incNs > 0 && coldNs/incNs < retrainSpeedupFloor {
		b.Fatalf("retrain speedup %.2fx (cold %.0f ns/op ÷ incremental %.0f ns/op) is below the %.1fx floor",
			coldNs/incNs, coldNs, incNs, retrainSpeedupFloor)
	}
}
