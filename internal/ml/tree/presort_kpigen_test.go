package tree_test

// An external test package: the severities need internal/core, which imports
// tree (through forest).

import (
	"fmt"
	"testing"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/tree"
)

// kpigenSeed pins the generated KPIs of the severity oracle (seed policy:
// DESIGN.md "Seeds and reproducibility").
const kpigenSeed int64 = 2202

// TestPresortMatchesOracleOnSeverities runs the presort oracle on what
// training actually bins: the 133 severities of the hourly registry (NaN→0,
// as the forest reads them) over 9 and 13 weeks of each generated KPI type —
// long runs of warm-up zeros, heavy-tailed ratios, columns of a few distinct
// values.
func TestPresortMatchesOracleOnSeverities(t *testing.T) {
	for _, p := range []kpigen.Profile{kpigen.PV(kpigen.Small), kpigen.SR(kpigen.Small), kpigen.SRT(kpigen.Small)} {
		for _, weeks := range []int{9, 13} {
			p := p
			p.Interval, p.Weeks = time.Hour, weeks
			t.Run(fmt.Sprintf("%s/%dw", p.Name, weeks), func(t *testing.T) {
				data := kpigen.Generate(p, kpigenSeed)
				dets, err := detectors.Registry(p.Interval)
				if err != nil {
					t.Fatal(err)
				}
				feats, err := core.Extract(data.Series, dets, core.ExtractConfig{})
				if err != nil {
					t.Fatal(err)
				}
				tree.CheckPresortOracle(t, feats.ImputedFull(), data.Labels)
			})
		}
	}
}
