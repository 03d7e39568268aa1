package forest

// Tests for the flattened inference path: walking raw thresholds through the
// one contiguous cross-tree node array must agree exactly with binning the
// row and traversing each tree's own node array, and the per-point hot path
// must not allocate.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"opprentice/internal/ml/tree"
)

// refProb combines the ensemble the slow way — one tree at a time through
// the tree package's own traversal — as the ground truth for the flat walk.
func refProb(f *Forest, row []float64) float64 {
	codes := make([]uint8, len(row))
	for j, v := range row {
		codes[j] = f.binner.Code(j, v)
	}
	sum := 0.0
	for _, t := range f.trees {
		p := t.Prob(func(j int) uint8 { return codes[j] })
		if f.majorityVote {
			if p >= 0.5 {
				sum++
			}
		} else {
			sum += p
		}
	}
	return sum / float64(len(f.trees))
}

// equivalenceSeed pins the forests and probe rows of the equivalence
// property (seed policy: DESIGN.md "Seeds and reproducibility").
const equivalenceSeed int64 = 16

// edgeFixture builds a training set whose columns cover the binner's shapes:
// no edge at all (an all-NaN column), a single edge (a constant column), a
// handful (small integer counts) and the full 255 (continuous values), with
// labels that depend on several of them so the trees split on every kind.
func edgeFixture(rng *rand.Rand, n int) (cols [][]float64, labels []bool, classes []uint8) {
	cols = make([][]float64, 9)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	labels, classes = make([]bool, n), make([]uint8, n)
	for i := 0; i < n; i++ {
		cols[0][i] = math.NaN()
		cols[1][i] = 7
		cols[2][i] = float64(rng.Intn(3))
		cols[3][i] = float64(rng.Intn(2)) - 0.5 // an edge on either side of ±0
		for j := 4; j < len(cols); j++ {
			cols[j][i] = rng.NormFloat64() * math.Pow(10, float64(j-5))
		}
		score := cols[2][i] + cols[3][i] + cols[5][i] + cols[6][i]/10 + 0.3*rng.NormFloat64()
		labels[i] = score > 2
		if labels[i] {
			classes[i] = 1 + uint8(rng.Intn(2))
			if cols[7][i] > 0 {
				classes[i] = 3
			}
		}
	}
	return cols, labels, classes
}

// probeRow draws every feature from the values a threshold walk could get
// wrong: exactly on an edge, one ulp either side of it, below the first edge,
// above the last, NaN, ±Inf and ±0.
func probeRow(rng *rand.Rand, b *tree.Binner, row []float64) {
	for j := range row {
		var edge float64 // features without edges probe around 0
		if n := 0; b.Threshold(j, 0) != math.Inf(1) {
			for n < tree.MaxBins-1 && b.Threshold(j, uint8(n)) != math.Inf(1) {
				n++
			}
			edge = b.Threshold(j, uint8(rng.Intn(n)))
		}
		switch rng.Intn(10) {
		case 0:
			row[j] = edge
		case 1:
			row[j] = math.Nextafter(edge, math.Inf(1))
		case 2:
			row[j] = math.Nextafter(edge, math.Inf(-1))
		case 3:
			row[j] = b.Threshold(j, 0) - 1 // below the first edge (or +Inf)
		case 4:
			row[j] = math.MaxFloat64 // above the last
		case 5:
			row[j] = math.NaN()
		case 6:
			row[j] = math.Inf(1)
		case 7:
			row[j] = math.Inf(-1)
		case 8:
			row[j] = 0
		case 9:
			row[j] = math.Copysign(0, -1)
		}
	}
}

// TestForestRawWalkMatchesBinned is the equivalence property behind
// "inference never bins": for forests of 1–60 trees under both combination
// rules, on rows made of edge values and specials, the raw-threshold walk
// returns the very bits that binning the row and traversing each tree does —
// through Prob, ProbRowsInto and ProbAll, after a Save/Load round trip, and
// for the multi-class type head.
func TestForestRawWalkMatchesBinned(t *testing.T) {
	rng := rand.New(rand.NewSource(equivalenceSeed))
	cols, labels, classes := edgeFixture(rng, 1200)
	d := len(cols)
	const probes = probAllSerialThreshold + 64 // ProbAll takes its row-chunked parallel path
	for _, trees := range []int{1, 2, 7, 20, 60} {
		for _, mv := range []bool{false, true} {
			t.Run(fmt.Sprintf("trees=%d/majority=%v", trees, mv), func(t *testing.T) {
				cfg := Config{Trees: trees, Seed: equivalenceSeed + int64(trees), MajorityVote: mv}
				f := Train(cols, labels, cfg)
				var buf bytes.Buffer
				if err := f.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				mc := TrainMulti(tree.Presort(cols), classes, cfg)

				rows := make([]float64, probes*d)
				probeCols := make([][]float64, d)
				for j := range probeCols {
					probeCols[j] = make([]float64, probes)
				}
				for s := 0; s < probes; s++ {
					row := rows[s*d : (s+1)*d]
					probeRow(rng, f.binner, row)
					for j, v := range row {
						probeCols[j][s] = v
					}
				}
				batch := make([]float64, probes)
				f.ProbRowsInto(rows, d, batch)
				all := f.ProbAll(probeCols)
				for s := 0; s < probes; s++ {
					row := rows[s*d : (s+1)*d]
					want := math.Float64bits(refProb(f, row))
					for path, got := range map[string]float64{
						"Prob": f.Prob(row), "ProbRowsInto": batch[s], "ProbAll": all[s], "Load→Prob": loaded.Prob(row),
					} {
						if math.Float64bits(got) != want {
							t.Fatalf("row %v: %s = %v, binned reference %v", row, path, got, math.Float64frombits(want))
						}
					}
					wantClass, wantProb := uint8(0), 0.0
					for k, h := range mc.heads {
						if p := refProb(h, row); p > wantProb {
							wantClass, wantProb = mc.classes[k], p
						}
					}
					if wantProb < multiAbstain {
						wantClass = 0
					}
					if class, p := mc.PredictRow(row); class != wantClass || math.Float64bits(p) != math.Float64bits(wantProb) {
						t.Fatalf("row %v: type head (%d, %v), binned reference (%d, %v)", row, class, p, wantClass, wantProb)
					}
				}
			})
		}
	}
}

// TestBuildFlatRejectsTooManyFeatures: a feature index past what a flat node
// stores is refused, not truncated.
func TestBuildFlatRejectsTooManyFeatures(t *testing.T) {
	for d, ok := range map[int]bool{math.MaxUint16 + 1: true, math.MaxUint16 + 2: false} {
		f := &Forest{binner: tree.NewBinner(make([][]float64, d), 2)}
		if err := f.buildFlat(); (err == nil) != ok {
			t.Fatalf("%d features: buildFlat error %v, want ok=%v", d, err, ok)
		} else if err != nil && !strings.Contains(err.Error(), "features") {
			t.Fatalf("%d features: unhelpful error %q", d, err)
		}
	}
}

// TestProbAllSerialAndParallelAgree exercises both ProbAll paths — the
// serial small-window path and the row-chunked parallel one — against the
// per-row Prob result.
func TestProbAllSerialAndParallelAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Large enough to cross probAllSerialThreshold.
	n := 2 * probAllSerialThreshold
	cols, labels := makeBlobs(n, 4, rng)
	f := Train(cols, labels, Config{Trees: 11, Seed: 4})

	check := func(sub [][]float64) {
		t.Helper()
		out := f.ProbAll(sub)
		row := make([]float64, len(sub))
		for i := range out {
			for j := range sub {
				row[j] = sub[j][i]
			}
			if want := f.Prob(row); out[i] != want {
				t.Fatalf("sample %d: ProbAll %v, Prob %v", i, out[i], want)
			}
		}
	}
	check(cols) // parallel path
	small := make([][]float64, len(cols))
	for j := range cols {
		small[j] = cols[j][:probAllSerialThreshold/4]
	}
	check(small) // serial path
}

// TestProbRowsIntoMatchesProb pins the batched row-major path to the
// per-row one: classifying a packed batch must be bit-identical to calling
// Prob on each row, and must not allocate.
func TestProbRowsIntoMatchesProb(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cols, labels := makeBlobs(600, 7, rng)
	for _, mv := range []bool{false, true} {
		f := Train(cols, labels, Config{Trees: 13, Seed: 5, MajorityVote: mv})
		d := len(cols)
		for _, n := range []int{1, 2, 17, 64} {
			rows := make([]float64, n*d)
			for i := range rows {
				rows[i] = 6 * rng.NormFloat64()
			}
			out := make([]float64, n)
			f.ProbRowsInto(rows, d, out)
			for s := 0; s < n; s++ {
				if want := f.Prob(rows[s*d : (s+1)*d]); out[s] != want {
					t.Fatalf("majorityVote=%v n=%d sample %d: ProbRowsInto %v, Prob %v", mv, n, s, out[s], want)
				}
			}
			if allocs := testing.AllocsPerRun(50, func() { f.ProbRowsInto(rows, d, out) }); allocs != 0 {
				t.Fatalf("ProbRowsInto allocates %.1f objects per call, want 0", allocs)
			}
		}
	}
}

// TestProbZeroAllocs is the acceptance criterion for the flattened hot
// path: classifying one dense row of the paper-scale 133-configuration
// feature vector allocates nothing.
func TestProbZeroAllocs(t *testing.T) {
	const d = 133
	rng := rand.New(rand.NewSource(7))
	cols := make([][]float64, d)
	labels := make([]bool, 600)
	for j := range cols {
		cols[j] = make([]float64, len(labels))
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	for i := range labels {
		labels[i] = cols[0][i] > 1.2
	}
	f := Train(cols, labels, Config{Trees: 20, Seed: 8})

	row := make([]float64, d)
	for j := range row {
		row[j] = rng.NormFloat64()
	}
	var sink float64
	allocs := testing.AllocsPerRun(200, func() { sink = f.Prob(row) })
	if allocs != 0 {
		t.Fatalf("Prob allocates %.1f objects per call, want 0", allocs)
	}
	if math.IsNaN(sink) {
		t.Fatal("Prob returned NaN")
	}
}
