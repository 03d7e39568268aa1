package forest

// Flattened-inference benchmarks. BenchmarkForestProbFlat is the acceptance
// benchmark for the contiguous node array: one dense 133-feature row (the
// paper's configuration count) through a 60-tree forest, 0 allocs/op.

import (
	"fmt"
	"math/rand"
	"testing"
)

// Pinned RNG seeds — seed policy (DESIGN.md "Seeds and reproducibility"):
// bench fixtures use fixed, named seeds so the measured forest shape (and
// therefore ns/op and the alloc count) is stable across runs.
const (
	benchDataSeed   int64 = 11 // feature matrix + probe row
	benchForestSeed int64 = 12 // bootstrap/split sampling inside Train
)

func benchForest(b *testing.B, d, n, trees int) (*Forest, []float64, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(benchDataSeed))
	cols := make([][]float64, d)
	labels := make([]bool, n)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	for i := range labels {
		labels[i] = cols[0][i]+cols[1][i] > 2
	}
	f := Train(cols, labels, Config{Trees: trees, Seed: benchForestSeed})
	row := make([]float64, d)
	for j := range row {
		row[j] = rng.NormFloat64()
	}
	return f, row, cols
}

func BenchmarkForestProbFlat(b *testing.B) {
	f, row, _ := benchForest(b, 133, 2000, 60)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = f.Prob(row)
	}
	_ = sink
}

func BenchmarkForestProbAllFlat(b *testing.B) {
	for _, n := range []int{168, 2016} { // one week / twelve weeks of hourly points
		f, _, cols := benchForest(b, 133, n, 60)
		b.Run(map[int]string{168: "week", 2016: "12weeks"}[n], func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.ProbAll(cols)
			}
		})
	}
}

// BenchmarkForestLoad decodes the record of a 20- and a 60-tree forest over
// 133 features, what a warm restore pays per head; bytes/op is the record's
// size.
func BenchmarkForestLoad(b *testing.B) {
	for _, trees := range []int{20, 60} {
		f, _, _ := benchForest(b, 133, 1512, trees)
		rec := f.Append(nil)
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(rec)), "bytes")
			for i := 0; i < b.N; i++ {
				if _, _, err := Load(rec, 133); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
