package tree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinnerCodesMonotone(t *testing.T) {
	col := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := NewBinner([][]float64{col}, 4)
	prev := uint8(0)
	for _, v := range col {
		c := b.Code(0, v)
		if c < prev {
			t.Fatalf("codes not monotone: %v after %v", c, prev)
		}
		prev = c
	}
	if b.Code(0, -100) != 0 {
		t.Error("below-range value should get code 0")
	}
	if got := b.Code(0, 1e9); int(got) > len(colEdges(b, 0)) {
		t.Error("above-range code exceeds bucket count")
	}
}

func colEdges(b *Binner, j int) []float64 { return b.edges[j] }

func TestBinnerNaN(t *testing.T) {
	b := NewBinner([][]float64{{1, 2, math.NaN(), 4}}, 4)
	if b.Code(0, math.NaN()) != 0 {
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
			c := b.Code(0, v)
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

func TestBinnerBinPanicsOnShape(t *testing.T) {
	b := NewBinner([][]float64{{1, 2}}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b.Bin([][]float64{{1}, {2}})
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

func trainTree(cols [][]float64, labels []bool, cfg Config, bins int) (*Tree, *Binner, [][]uint8) {
	b := NewBinner(cols, bins)
	binned := b.Bin(cols)
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	return Grow(binned, labels, idx, cfg), b, binned
}

func TestTreeSolvesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols, labels := makeXOR(600, rng)
	tr, _, binned := trainTree(cols, labels, Config{}, 64)
	correct := 0
	for i := range labels {
		pred := tr.ProbCols(binned, i) >= 0.5
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
	tr, _, _ := trainTree(cols, labels, Config{}, 8)
	if tr.NumNodes() != 1 {
		t.Errorf("pure data should give a single leaf, got %d nodes", tr.NumNodes())
	}
	if p := tr.Prob(func(int) uint8 { return 0 }); p != 1 {
		t.Errorf("pure anomaly leaf prob = %v, want 1", p)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols, labels := makeXOR(300, rng)
	tr, _, binned := trainTree(cols, labels, Config{MinLeaf: 50}, 64)
	// No leaf holds fewer than MinLeaf training points, so the tree is small.
	if tr.NumNodes() > 2*300/50+1 {
		t.Errorf("MinLeaf=50 tree has %d nodes, too many", tr.NumNodes())
	}
	_ = binned
}

func TestTreeFeatureSubsamplingNeedsRng(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Grow([][]uint8{{0, 1}}, []bool{false, true}, []int{0, 1}, Config{FeaturesPerSplit: 1})
}

func TestTreePrintShowsRulesAndVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cols, labels := makeXOR(400, rng)
	tr, binner, _ := trainTree(cols, labels, Config{}, 64)
	var sb strings.Builder
	tr.Print(&sb, []string{"detA", "detB"}, binner, 2)
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
	grow := func(seed int64) *Tree {
		b := NewBinner(cols, 32)
		binned := b.Bin(cols)
		idx := make([]int, len(labels))
		for i := range idx {
			idx[i] = i
		}
		return Grow(binned, labels, idx, Config{
			FeaturesPerSplit: 1,
			Rng:              rand.New(rand.NewSource(seed)),
		})
	}
	a, b := grow(7), grow(7)
	if a.NumNodes() != b.NumNodes() {
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
	tr, _, binned := trainTree(cols, labels, Config{}, 256)
	wrong := 0
	for i := range labels {
		if (tr.ProbCols(binned, i) >= 0.5) != labels[i] {
			wrong++
		}
	}
	// A handful of bin-collision errors are acceptable.
	if wrong > n/50 {
		t.Errorf("fully grown tree misfits %d/%d training points", wrong, n)
	}
}
