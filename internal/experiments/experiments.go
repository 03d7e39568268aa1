// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from the synthetic KPIs: each experiment returns printable
// tables whose rows are the series the paper plots. The per-experiment index
// in DESIGN.md maps experiment ids to the modules exercised here.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/fanout"
	"opprentice/internal/kpigen"
	"opprentice/internal/labelsim"
	"opprentice/internal/ml/forest"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
)

// Options configure an experiment run.
type Options struct {
	// Scale selects the dataset size (default kpigen.Medium).
	Scale kpigen.Scale
	// Seed drives all randomness (default 1).
	Seed int64
	// Trees is the forest size (default 60).
	Trees int
}

// preference is the operators' accuracy preference every experiment runs at:
// recall ≥ 0.66, precision ≥ 0.66.
var preference = stats.Preference{Recall: 0.66, Precision: 0.66}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trees == 0 {
		o.Trees = 60
	}
	return o
}

func (o Options) forestConfig() forest.Config {
	return forest.Config{Trees: o.Trees, Seed: o.Seed}
}

// Table is one printable result: a titled grid plus free-form notes (used
// for ASCII plots and printed trees).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if len(t.Columns) > 0 {
		widths := make([]int, len(t.Columns))
		for j, c := range t.Columns {
			widths[j] = len(c)
		}
		for _, row := range t.Rows {
			for j, cell := range row {
				if j < len(widths) && len(cell) > widths[j] {
					widths[j] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for j, cell := range cells {
				if j > 0 {
					sb.WriteString("  ")
				}
				fmt.Fprintf(&sb, "%-*s", widths[j], cell)
			}
			sb.WriteByte('\n')
		}
		writeRow(t.Columns)
		for j, wd := range widths {
			if j > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(strings.Repeat("-", wd))
		}
		sb.WriteByte('\n')
		for _, row := range t.Rows {
			writeRow(row)
		}
	}
	if t.Notes != "" {
		sb.WriteString(t.Notes)
		if !strings.HasSuffix(t.Notes, "\n") {
			sb.WriteByte('\n')
		}
	}
	sb.WriteByte('\n')
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// kpiData is one prepared KPI: generated, operator-labeled and
// feature-extracted.
type kpiData struct {
	dataset *kpigen.Dataset
	series  *timeseries.Series
	labels  timeseries.Labels // operator labels (noisy) — the ground truth
	feats   *core.Features
	ppw     int
	ppd     int
}

// operatorFor scales the simulated operator's imperfections to the data
// interval: boundary errors of a few wall-clock minutes and occasionally
// missed sub-15-minute blips, as with the real labeling tool. At coarse
// intervals these round to zero points and the operator becomes exact.
func operatorFor(interval time.Duration, seed int64) labelsim.Operator {
	return labelsim.Operator{
		BoundaryJitter: int(5 * time.Minute / interval),
		MissBelow:      int(15 * time.Minute / interval),
		MissProb:       0.1,
		Seed:           seed,
	}
}

// prepare generates the KPI, applies the simulated operator's labeling pass
// and extracts all 133 features.
func prepare(p kpigen.Profile, o Options) (*kpiData, error) {
	d := kpigen.Generate(p, o.Seed)
	labels := operatorFor(p.Interval, o.Seed).Label(d.Labels)

	ds, err := detectors.Registry(p.Interval)
	if err != nil {
		return nil, err
	}
	feats, err := core.Extract(d.Series, ds, core.ExtractConfig{})
	if err != nil {
		return nil, err
	}
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		return nil, err
	}
	ppd, err := d.Series.PointsPerDay()
	if err != nil {
		return nil, err
	}
	return &kpiData{
		dataset: d,
		series:  d.Series,
		labels:  labels,
		feats:   feats,
		ppw:     ppw,
		ppd:     ppd,
	}, nil
}

// prepareAll prepares the three case-study KPIs concurrently.
func prepareAll(o Options) ([]*kpiData, error) {
	profiles := kpigen.Profiles(o.Scale)
	out := make([]*kpiData, len(profiles))
	errs := make([]error, len(profiles))
	fanout.Run(fanout.Workers(len(profiles)), len(profiles), func(_, i int) {
		out[i], errs[i] = prepare(profiles[i], o)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Runner is an experiment entry point.
type Runner func(Options) ([]*Table, error)

// Meta describes a registered experiment.
type Meta struct {
	ID, Title string
	Run       Runner
}

// Registry lists every reproducible experiment in paper order.
func Registry() []Meta {
	return []Meta{
		{"T1", "Table 1: three kinds of KPI data", Table1},
		{"F1", "Fig 1: 1-week examples of the three KPIs", Fig1},
		{"T3", "Table 3: basic detectors and sampled parameters", Table3},
		{"F5", "Fig 5: decision tree example (SRT)", Fig5},
		{"F6", "Fig 6: PR curve and cThld selection metrics (PV)", Fig6},
		{"F7", "Fig 7: best cThld of each week", Fig7},
		{"F9", "Fig 9: AUCPR ranking — RF vs configurations vs combinations", Fig9},
		{"T4", "Table 4: maximum precision when recall >= 0.66", Table4},
		{"F10", "Fig 10: AUCPR of learners as features are added", Fig10},
		{"F11", "Fig 11: AUCPR of training-set policies", Fig11},
		{"F12", "Fig 12: offline comparison of cThld metrics", Fig12},
		{"F13", "Fig 13: online detection — EWMA vs 5-fold vs best case", Fig13},
		{"F14", "Fig 14: labeling time vs anomalous windows", Fig14},
		{"LAG", "Sec 5.8: detection lag and training time", Lag},
		{"XFER", "Sec 6 extension: detection across same-type KPIs", Transfer},
		{"FSEL", "Sec 4.4.1 future work: mRMR feature selection", FeatureSelection},
		{"PLUG", "Sec 8: plugging in emerging detectors", PlugIn},
		{"DIRTY", "Sec 6 extension: robustness to missing data", DirtyData},
		{"AblEWMA", "Ablation: EWMA smoothing constant for cThld prediction", AblationEWMA},
		{"AblPC", "Ablation: PC-Score incentive constant", AblationPC},
		{"AblPool", "Ablation: forest accuracy vs configuration-pool size", AblationPool},
		{"AblNoise", "Sec 4.2: robustness to operator labeling noise", LabelNoise},
		{"DRIFT", "Sec 3.2: novel anomaly types and incremental retraining", Drift},
		{"EVT", "EVT/POT dynamic cThld vs EWMA prediction (served path A/B)", EVTvsEWMA},
		{"ACTIVE", "Active learning: label cost of uncertainty queries vs full labeling", Active},
		{"IMP", "Forest feature importances per KPI (automated Fig 5)", Importance},
	}
}

// Find returns the experiment with the given id (case-insensitive).
func Find(id string) (Meta, bool) {
	for _, m := range Registry() {
		if strings.EqualFold(m.ID, id) {
			return m, true
		}
	}
	return Meta{}, false
}

// fmtF renders a float compactly for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// rankOf returns the 1-based rank of the named approach among scores sorted
// descending.
func rankOf(name string, names []string, scores []float64) int {
	type pair struct {
		name  string
		score float64
	}
	ps := make([]pair, len(names))
	for i := range names {
		ps[i] = pair{names[i], scores[i]}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].score > ps[b].score })
	for i, p := range ps {
		if p.name == name {
			return i + 1
		}
	}
	return -1
}
