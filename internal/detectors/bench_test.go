package detectors

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

var benchSink float64

// BenchmarkDetectorStep measures what one point costs in each of the 14
// Table-3 families of the hourly registry: an op steps every configuration
// of the family once, warm, so the 14 figures add up to the battery's
// per-point cost and a family's share of it can be read off directly.
func BenchmarkDetectorStep(b *testing.B) {
	ds, err := Registry(time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	// Six weeks of an hourly KPI shape (daily and weekly seasons plus
	// noise) warm every window; the same series, continued, is the input.
	rng := rand.New(rand.NewSource(31))
	stream := make([]float64, 16*7*24)
	for i := range stream {
		day, week := math.Sin(2*math.Pi*float64(i)/24), math.Sin(2*math.Pi*float64(i)/168)
		stream[i] = 500 + 120*day + 40*week + rng.NormFloat64()*15
	}
	const warm = 6 * 7 * 24
	first := 0
	for _, spec := range Table3() {
		family := ds[first : first+spec.Configs]
		first += spec.Configs
		name, _, _ := strings.Cut(family[0].Name(), "(")
		b.Run(name, func(b *testing.B) {
			for _, d := range family {
				if tr, ok := d.(Trainable); ok {
					if err := tr.Fit(stream[:warm]); err != nil {
						b.Fatal(err)
					}
				}
				for _, v := range stream[:warm] {
					d.Step(v)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := stream[warm+i%(len(stream)-warm)]
				for _, d := range family {
					sev, _ := d.Step(v)
					benchSink += sev
				}
			}
		})
	}
}
