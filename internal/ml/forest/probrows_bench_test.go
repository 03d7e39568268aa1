package forest_test

// An external test package: the fixture needs internal/core, which imports
// forest.

import (
	"testing"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
)

// probRowsSeed pins the generated KPI and the forests of severityFixture's
// users (seed policy: DESIGN.md "Seeds and
// reproducibility"): the measured depth and edge counts are then stable.
const probRowsSeed int64 = 1602

// severityFixture returns what the repo benchmark trains on: the 133
// severities of the hourly registry over nine weeks of a generated KPI
// (1 512 rows, NaN→0), its labels, and the 20-tree configuration.
func severityFixture(tb testing.TB) ([][]float64, []bool, forest.Config) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 9
	data := kpigen.Generate(p, probRowsSeed)
	dets, err := detectors.Registry(p.Interval)
	if err != nil {
		tb.Fatal(err)
	}
	feats, err := core.Extract(data.Series, dets, core.ExtractConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return feats.ImputedFull(), data.Labels, forest.Config{Trees: 20, Seed: probRowsSeed}
}

// BenchmarkForestProbRows is the forest step of the repo benchmark in
// isolation: a forest trained on severityFixture — so tree depth and the
// number of edges per feature are what serving sees, not what Gaussian noise
// gives — and a 64-row frame per call. Reports ns/row; allocating fails it.
func BenchmarkForestProbRows(b *testing.B) {
	cols, labels, cfg := severityFixture(b)
	f := forest.Train(cols, labels, cfg)

	const frame = 64
	d, n := len(cols), len(labels)
	rows := make([]float64, frame*d)
	for s := 0; s < frame; s++ {
		for j := range cols {
			rows[s*d+j] = cols[j][n-frame+s]
		}
	}
	out := make([]float64, frame)
	if allocs := testing.AllocsPerRun(20, func() { f.ProbRowsInto(rows, d, out) }); allocs != 0 {
		b.Fatalf("ProbRowsInto allocates %.1f objects per frame, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ProbRowsInto(rows, d, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/frame, "ns/row")
}
