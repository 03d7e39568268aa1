package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// code is the bucket of v for feature j by binary search: what the presorted
// binning is tested against (refBin).
func code(b *Binner, j int, v float64) uint8 {
	if math.IsNaN(v) {
		return 0
	}
	return uint8(sort.SearchFloat64s(b.edges[j], v))
}

func TestBinnerCodesMonotone(t *testing.T) {
	col := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := NewBinner([][]float64{col}, 4)
	prev := uint8(0)
	for _, v := range col {
		c := code(b, 0, v)
		if c < prev {
			t.Fatalf("codes not monotone: %v after %v", c, prev)
		}
		prev = c
	}
	if code(b, 0, -100) != 0 {
		t.Error("below-range value should get code 0")
	}
	if got := code(b, 0, 1e9); int(got) > len(colEdges(b, 0)) {
		t.Error("above-range code exceeds bucket count")
	}
}

func colEdges(b *Binner, j int) []float64 { return b.edges[j] }

func TestBinnerNaN(t *testing.T) {
	b := NewBinner([][]float64{{1, 2, math.NaN(), 4}}, 4)
	if code(b, 0, math.NaN()) != 0 {
		t.Error("NaN should map to bucket 0")
	}
}

func TestBinnerThreshold(t *testing.T) {
	b := NewBinner([][]float64{{1, 2, 3, 4}}, 4)
	edges := colEdges(b, 0)
	if len(edges) == 0 {
		t.Fatal("no edges learned")
	}
	if got := b.Threshold(0, 0); got != edges[0] {
		t.Errorf("Threshold(0,0) = %v, want %v", got, edges[0])
	}
	if !math.IsInf(b.Threshold(0, 255), 1) {
		t.Error("last bucket threshold should be +Inf")
	}
}

func TestBinnerCodeRespectsThreshold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		col := make([]float64, 200)
		for i := range col {
			col[i] = rng.NormFloat64() * 10
		}
		b := NewBinner([][]float64{col}, 32)
		for _, v := range col {
			c := code(b, 0, v)
			// v must be ≤ its bucket's upper boundary and > the previous one.
			if v > b.Threshold(0, c) {
				return false
			}
			if c > 0 && v <= b.Threshold(0, c-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGrowPanicsOnShape(t *testing.T) {
	b := NewBinner([][]float64{{1, 2}}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Grow(b, [][]uint8{{0, 1}, {1, 0}}, []bool{false, true}, []int{0, 1}, Config{})
}

// TestGrowRejectsTooManyFeatures: a feature index past what a Node stores
// is refused, not truncated.
func TestGrowRejectsTooManyFeatures(t *testing.T) {
	for d, ok := range map[int]bool{maxFeatures: true, maxFeatures + 1: false} {
		func() {
			defer func() {
				err := recover()
				if (err == nil) != ok {
					t.Fatalf("%d features: panic %v, want ok=%v", d, err, ok)
				}
				if err != nil && !strings.Contains(fmt.Sprint(err), "features") {
					t.Fatalf("%d features: unhelpful panic %q", d, err)
				}
			}()
			Grow(NewBinner(make([][]float64, d), 2), make([][]uint8, d), nil, nil, Config{})
		}()
	}
}

// makeXOR builds a dataset a single linear split cannot solve but a depth-2
// tree can.
func makeXOR(n int, rng *rand.Rand) (cols [][]float64, labels []bool) {
	cols = [][]float64{make([]float64, n), make([]float64, n)}
	labels = make([]bool, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		cols[0][i], cols[1][i] = a, b
		labels[i] = (a > 0.5) != (b > 0.5)
	}
	return cols, labels
}

func trainTree(cols [][]float64, labels []bool, cfg Config, bins int) ([]Node, *Binner) {
	b := NewBinner(cols, bins)
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	nodes, _ := Grow(b, refBin(b, cols), labels, idx, cfg)
	return nodes, b
}

// probCols walks sample i of the column-major raw matrix.
func probCols(nodes []Node, cols [][]float64, i int) float64 {
	row := make([]float64, len(cols))
	for j, col := range cols {
		row[j] = col[i]
	}
	return Prob(nodes, 0, row)
}

func TestTreeSolvesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols, labels := makeXOR(600, rng)
	nodes, _ := trainTree(cols, labels, Config{}, 64)
	correct := 0
	for i := range labels {
		pred := probCols(nodes, cols, i) >= 0.5
		if pred == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(labels)); acc < 0.97 {
		t.Errorf("XOR training accuracy = %v, want ≥ 0.97", acc)
	}
}

func TestTreePureLeafStopsGrowing(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4}}
	labels := []bool{true, true, true, true}
	nodes, _ := trainTree(cols, labels, Config{}, 8)
	if len(nodes) != 1 {
		t.Errorf("pure data should give a single leaf, got %d nodes", len(nodes))
	}
	if p := Prob(nodes, 0, []float64{0}); p != 1 {
		t.Errorf("pure anomaly leaf prob = %v, want 1", p)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols, labels := makeXOR(300, rng)
	nodes, _ := trainTree(cols, labels, Config{MinLeaf: 50}, 64)
	// No leaf holds fewer than MinLeaf training points, so the tree is small.
	if len(nodes) > 2*300/50+1 {
		t.Errorf("MinLeaf=50 tree has %d nodes, too many", len(nodes))
	}
}

func TestTreeFeatureSubsamplingNeedsRng(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Grow(NewBinner([][]float64{{0, 1}}, 4), [][]uint8{{0, 1}}, []bool{false, true}, []int{0, 1}, Config{FeaturesPerSplit: 1})
}

func TestTreePrintShowsRulesAndVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cols, labels := makeXOR(400, rng)
	nodes, _ := trainTree(cols, labels, Config{}, 64)
	var sb strings.Builder
	Print(&sb, nodes, []string{"detA", "detB"}, cols, labels, 2)
	out := sb.String()
	if !strings.Contains(out, "severity[detA]") && !strings.Contains(out, "severity[detB]") {
		t.Errorf("printed tree lacks feature names:\n%s", out)
	}
	if !strings.Contains(out, "Anomaly") && !strings.Contains(out, "Normal") {
		t.Errorf("printed tree lacks verdicts:\n%s", out)
	}
}

func TestTreeDeterministicWithSeed(t *testing.T) {
	rng1 := rand.New(rand.NewSource(5))
	cols, labels := makeXOR(300, rng1)
	grow := func(seed int64) []Node {
		b := NewBinner(cols, 32)
		idx := make([]int, len(labels))
		for i := range idx {
			idx[i] = i
		}
		nodes, _ := Grow(b, refBin(b, cols), labels, idx, Config{
			FeaturesPerSplit: 1,
			Rng:              rand.New(rand.NewSource(seed)),
		})
		return nodes
	}
	if a, b := grow(7), grow(7); !slices.Equal(a, b) {
		t.Error("same seed should grow identical trees")
	}
}

// Fully grown trees must perfectly fit any consistent training set (bins
// permitting) — the paper's "fully grown without pruning".
func TestFullyGrownFitsTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 400
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := range cols {
			cols[j][i] = rng.NormFloat64()
		}
		labels[i] = cols[0][i]+cols[1][i]*cols[2][i] > 0.3
	}
	nodes, _ := trainTree(cols, labels, Config{}, 256)
	wrong := 0
	for i := range labels {
		if (probCols(nodes, cols, i) >= 0.5) != labels[i] {
			wrong++
		}
	}
	// A handful of bin-collision errors are acceptable.
	if wrong > n/50 {
		t.Errorf("fully grown tree misfits %d/%d training points", wrong, n)
	}
}
