package core

// StepBatch is the batched form of the online hot path; these tests pin it
// to the sequential contract: for any chunking of the input stream, the
// verdict sequence must be bit-identical to per-point Step calls — including
// under a duration filter (whose state advances point by point) and when a
// detector panics mid-batch (degradation must land on the same point).

import (
	"fmt"
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/faultinject"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
)

// twinMonitors builds two identical monitors over the same generated KPI
// (deterministic training) plus a continuation stream to score.
func twinMonitors(t *testing.T, cfg MonitorConfig, extra func() []detectors.Detector) (a, b *Monitor, future []float64) {
	t.Helper()
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 77)
	build := func() *Monitor {
		dets := smallRegistry(t)
		if extra != nil {
			dets = append(dets, extra()...)
		}
		mon, err := NewMonitor(d.Series, d.Labels, dets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	a, b = build(), build()
	cont := kpigen.Generate(p, 78)
	return a, b, cont.Series.Values
}

// chunked feeds values through StepBatch in uneven chunks and returns the
// concatenated verdicts.
func chunked(m *Monitor, values []float64) []Verdict {
	sizes := []int{1, 2, 7, 32, 3, 64, 5}
	var out []Verdict
	for i, s := 0, 0; i < len(values); s++ {
		n := sizes[s%len(sizes)]
		if i+n > len(values) {
			n = len(values) - i
		}
		out = m.StepBatch(values[i:i+n], out)
		i += n
	}
	return out
}

func TestStepBatchMatchesStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MonitorConfig
	}{
		{"plain", MonitorConfig{Forest: forest.Config{Trees: 12, Seed: 3}, SkipInitialCV: true}},
		{"duration-filter", MonitorConfig{Forest: forest.Config{Trees: 12, Seed: 3}, SkipInitialCV: true, MinDuration: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, bat, future := twinMonitors(t, tc.cfg, nil)
			want := make([]Verdict, 0, len(future))
			for _, v := range future {
				want = append(want, seq.Step(v))
			}
			got := chunked(bat, future)
			if len(got) != len(want) {
				t.Fatalf("got %d verdicts, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("verdict %d: StepBatch %+v, Step %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestStepBatchSandboxesMidBatchPanic: configurations that panic at points k
// of the online stream degrade on exactly point k whatever the framing — two
// of them inside one frame, on the first and on the last point of a block,
// and in a frame that spans a block boundary. Verdicts equal per-point Step,
// every panic is reported once with its value, and the dead column reads 1
// before its point and 0 from it on.
func TestStepBatchSandboxesMidBatchPanic(t *testing.T) {
	const histLen = 10 * 168 // twinMonitors' ten hourly weeks
	cfg := MonitorConfig{Forest: forest.Config{Trees: 12, Seed: 3}, SkipInitialCV: true}
	for _, tc := range []struct {
		name   string
		blow   []int // online point at which each extra configuration panics
		frames []int // StepBatch sizes, cycled
	}{
		{"uneven-chunks", []int{150}, []int{1, 2, 7, 32, 3, 64, 5}},
		{"two-in-one-frame", []int{70, 100}, []int{64}},
		{"block-first-point", []int{stepBlock}, []int{2 * stepBlock}},
		{"block-last-point", []int{stepBlock - 1}, []int{2 * stepBlock}},
		{"frame-spans-blocks", []int{stepBlock + 40, 3 * stepBlock}, []int{100, stepBlock + 100, 2*stepBlock + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reported := map[string]int{}
			cfg.OnDetectorPanic = func(name string, recovered any) {
				if recovered == nil {
					t.Errorf("%s reported without its panic value", name)
				}
				reported[name]++
			}
			seq, bat, future := twinMonitors(t, cfg, func() []detectors.Detector {
				var ds []detectors.Detector
				for i, at := range tc.blow {
					// Reset does not clear the call count: the training
					// extraction uses up histLen of the budget.
					ds = append(ds, &faultinject.PanickingDetector{
						ConfigName: fmt.Sprintf("boom(%d)", i), PanicAfter: histLen + at, Severity: 1})
				}
				return ds
			})
			future = future[:4*stepBlock]
			want := make([]Verdict, 0, len(future))
			for _, v := range future {
				want = append(want, seq.Step(v))
			}
			clear(reported) // both monitors report; count the batched one's

			d := len(bat.dets)
			var got []Verdict
			for at, f := 0, 0; at < len(future); f++ {
				n := min(tc.frames[f%len(tc.frames)], len(future)-at)
				got = bat.StepBatch(future[at:at+n], got)
				// The scratch still holds the frame's last block.
				rows := (n-1)%stepBlock + 1
				for k := 0; k < rows; k++ {
					point := at + n - rows + k
					for i, blowAt := range tc.blow {
						sev := 1.0
						if point >= blowAt {
							sev = 0
						}
						if cell := bat.rowsBuf[k*d+d-len(tc.blow)+i]; cell != sev {
							t.Fatalf("boom(%d) at point %d: feature %v, want %v", i, point, cell, sev)
						}
					}
				}
				at += n
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("verdict %d: StepBatch %+v, Step %+v", i, got[i], want[i])
				}
			}
			if n := len(tc.blow); seq.DetectorPanics() != n || bat.DetectorPanics() != n || bat.DegradedDetectors() != n {
				t.Fatalf("panics: sequential %d, batched %d (%d degraded), want %d each",
					seq.DetectorPanics(), bat.DetectorPanics(), bat.DegradedDetectors(), n)
			}
			for i := range tc.blow {
				if name := fmt.Sprintf("boom(%d)", i); reported[name] != 1 {
					t.Errorf("%s reported %d times, want once", name, reported[name])
				}
			}
		})
	}
}

// TestStepBatchScratchIsBounded: one call with far more points than a block
// leaves the monitor holding one block of scratch, not the batch — and the
// verdicts of 10 000 Steps.
func TestStepBatchScratchIsBounded(t *testing.T) {
	cfg := MonitorConfig{Forest: forest.Config{Trees: 12, Seed: 3}, SkipInitialCV: true, MinDuration: 2}
	seq, bat, future := twinMonitors(t, cfg, nil)
	for len(future) < 10000 {
		future = append(future, future...)
	}
	future = future[:10000]
	got := bat.StepBatch(future, nil)
	if rows, probs := cap(bat.rowsBuf), cap(bat.probBuf); rows > stepBlock*len(bat.dets) || probs > stepBlock {
		t.Fatalf("scratch after a %d-point batch: %d feature cells and %d probabilities, want at most %d and %d",
			len(future), rows, probs, stepBlock*len(bat.dets), stepBlock)
	}
	for i, v := range future {
		if want := seq.Step(v); got[i] != want {
			t.Fatalf("verdict %d: StepBatch %+v, Step %+v", i, got[i], want)
		}
	}
}
