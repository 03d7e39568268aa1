package core

// core.stepbatch in isolation: what the repo benchmark's traced run reports
// as core.stepbatch.ns_per_pt, without a daemon around it. Sixteen monitors
// stand in for stream_trained's sixteen series, so a monitor's detector
// state has been evicted by the other fifteen when its turn comes, as in the
// daemon. `make bench-smoke` runs one iteration.

import (
	"fmt"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
)

func BenchmarkMonitorStepBatch(b *testing.B) {
	const series, histWeeks, ppw = 16, 9, 168
	profiles := [...]func(kpigen.Scale) kpigen.Profile{kpigen.PV, kpigen.SR, kpigen.SRT}
	mons := make([]*Monitor, series)
	live := make([][]float64, series)
	for i := range mons {
		p := profiles[i%len(profiles)](kpigen.Small)
		p.Interval = time.Hour
		p.Weeks = histWeeks
		d := kpigen.Generate(p, benchDataSeed+int64(2*i))
		mon, err := NewMonitor(d.Series, d.Labels, benchRegistry(b), MonitorConfig{
			Forest:        forest.Config{Trees: 20, Seed: benchDataSeed},
			SkipInitialCV: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		mons[i] = mon
		live[i] = kpigen.Generate(p, benchDataSeed+int64(2*i)+1).Series.Values
	}
	for _, frame := range []int{1, 64} {
		b.Run(fmt.Sprintf("frame=%d", frame), func(b *testing.B) {
			out := make([]Verdict, 0, frame)
			at := 0 // every monitor has consumed live[i][:at], cyclically
			step := func() {
				for i, m := range mons {
					lo := at % (histWeeks*ppw - frame)
					out = m.StepBatch(live[i][lo:lo+frame], out[:0])
				}
				at += frame
			}
			step() // grow the scratch
			if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
				b.Fatalf("a round of %d-point frames allocates %.1f objects, want 0", frame, allocs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(series*frame), "ns/pt")
		})
	}
}
