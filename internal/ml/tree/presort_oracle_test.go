package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Binning and split search as they were before the presort: every fit sorts
// a copy of each column for its edges, binary-searches every value for its
// code, and every split evaluates all bins below the node's highest, empty
// or not, after clearing all 256. Kept only as the oracle Presorted.Bin and
// grower.bestSplit are compared against.

// refNewBinner is NewBinner's former body.
func refNewBinner(cols [][]float64, maxBins int) *Binner {
	if maxBins < 2 {
		maxBins = 2
	}
	if maxBins > MaxBins {
		maxBins = MaxBins
	}
	b := &Binner{edges: make([][]float64, len(cols))}
	for j, col := range cols {
		sorted := make([]float64, 0, len(col))
		for _, v := range col {
			if !math.IsNaN(v) {
				sorted = append(sorted, v)
			}
		}
		sort.Float64s(sorted)
		var edges []float64
		for k := 1; k < maxBins; k++ {
			if len(sorted) == 0 {
				break
			}
			pos := k * len(sorted) / maxBins
			if pos >= len(sorted) {
				pos = len(sorted) - 1
			}
			e := sorted[pos]
			if len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		b.edges[j] = edges
	}
	return b
}

// refBin encodes cols by one binary search per value.
func refBin(b *Binner, cols [][]float64) [][]uint8 {
	out := make([][]uint8, len(cols))
	for j, col := range cols {
		out[j] = make([]uint8, len(col))
		for i, v := range col {
			if !math.IsNaN(v) {
				out[j][i] = uint8(sort.SearchFloat64s(b.edges[j], v))
			}
		}
	}
	return out
}

// refGrower grows a tree as grower does, with the former bestSplit.
type refGrower struct{ grower }

func refGrow(binned [][]uint8, labels []bool, idx []int, cfg Config) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	t := &Tree{importance: make([]float64, len(binned))}
	g := refGrower{grower{binned: binned, labels: labels, cfg: cfg, t: t, total: len(idx)}}
	g.featScratch = make([]int, len(binned))
	for j := range g.featScratch {
		g.featScratch[j] = j
	}
	g.grow(idx, 0)
	return t
}

func (g *refGrower) grow(idx []int, depth int) int32 {
	pos := 0
	for _, i := range idx {
		if g.labels[i] {
			pos++
		}
	}
	n := len(idx)
	me := int32(len(g.t.nodes))
	g.t.nodes = append(g.t.nodes, node{leaf: true, prob: float32(pos) / float32(n)})
	if pos == 0 || pos == n || n < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) {
		return me
	}
	feature, bin, gain, ok := g.bestSplit(idx, pos)
	if !ok {
		return me
	}
	codes := g.binned[feature]
	lo, hi := 0, n
	for lo < hi {
		if codes[idx[lo]] <= bin {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == n {
		return me
	}
	g.t.nodes[me].leaf = false
	g.t.nodes[me].feature = feature
	g.t.nodes[me].bin = bin
	g.t.importance[feature] += gain * float64(n) / float64(g.total)
	left := g.grow(idx[:lo], depth+1)
	right := g.grow(idx[lo:], depth+1)
	g.t.nodes[me].left = left
	g.t.nodes[me].right = right
	return me
}

// bestSplit is grower.bestSplit's former body.
func (g *refGrower) bestSplit(idx []int, pos int) (feature int, bin uint8, bestGain float64, ok bool) {
	n := len(idx)
	total := [2]int32{int32(n - pos), int32(pos)}

	feats := g.featScratch
	k := len(feats)
	if g.cfg.FeaturesPerSplit > 0 && g.cfg.FeaturesPerSplit < k {
		k = g.cfg.FeaturesPerSplit
		for i := 0; i < k; i++ {
			j := i + g.cfg.Rng.Intn(len(feats)-i)
			feats[i], feats[j] = feats[j], feats[i]
		}
	}

	parentGini := gini(total)
	bestGain = 1e-12
	ok = false
	for _, f := range feats[:k] {
		codes := g.binned[f]
		maxBin := uint8(0)
		for b := range g.hist {
			g.hist[b][0], g.hist[b][1] = 0, 0
		}
		for _, i := range idx {
			c := codes[i]
			if g.labels[i] {
				g.hist[c][1]++
			} else {
				g.hist[c][0]++
			}
			if c > maxBin {
				maxBin = c
			}
		}
		var left [2]int32
		for b := 0; b < int(maxBin); b++ {
			left[0] += g.hist[b][0]
			left[1] += g.hist[b][1]
			ln := left[0] + left[1]
			rn := int32(n) - ln
			if ln < int32(g.cfg.MinLeaf) || rn < int32(g.cfg.MinLeaf) {
				continue
			}
			right := [2]int32{total[0] - left[0], total[1] - left[1]}
			w := (float64(ln)*gini(left) + float64(rn)*gini(right)) / float64(n)
			if gain := parentGini - w; gain > bestGain {
				bestGain = gain
				feature, bin, ok = f, uint8(b), true
			}
		}
	}
	return feature, bin, bestGain, ok
}

// cutRows copies cols and labels without rows [lo, hi) — the matrix a fold
// used to be trained on.
func cutRows(cols [][]float64, labels []bool, lo, hi int) ([][]float64, []bool) {
	out := make([][]float64, len(cols))
	for j, col := range cols {
		out[j] = append(append([]float64(nil), col[:lo]...), col[hi:]...)
	}
	return out, append(append([]bool(nil), labels[:lo]...), labels[hi:]...)
}

// oracleSeed pins the bootstrap samples and feature subsets of the grown
// trees (seed policy: DESIGN.md "Seeds and reproducibility").
const oracleSeed int64 = 2201

// CheckPresortOracle asserts that one Presort of cols serves every exclusion
// range a training round uses — none, the five folds, the two halves — at
// maxBins 2, 4, 32 and 256 exactly as the reference serves a hand-cut copy:
// equal edges (==; a zero edge may differ in sign, see Presorted.Bin),
// identical codes, and, on those codes, trees identical node for node
// whether grown on all features from every row or forest-style on √d
// features from a bootstrap sample. Exported so that the kpigen-severity
// oracle, which needs internal/core and so lives in package tree_test, can
// share it.
func CheckPresortOracle(t *testing.T, cols [][]float64, labels []bool) {
	t.Helper()
	n := len(labels)
	ranges := [][2]int{{0, 0}, {0, n / 2}, {n / 2, n}}
	for fold := 0; fold < 5; fold++ {
		ranges = append(ranges, [2]int{fold * n / 5, (fold + 1) * n / 5})
	}
	ps := Presort(cols)
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		wantCols, wantLabels := cutRows(cols, labels, lo, hi)
		for _, maxBins := range []int{2, 4, 32, 256} {
			at := fmt.Sprintf("rows [%d,%d) out, %d bins", lo, hi, maxBins)
			want := refNewBinner(wantCols, maxBins)
			wantCodes := refBin(want, wantCols)
			got, gotCodes := ps.Bin(lo, hi, maxBins)
			for j := range cols {
				if len(got.edges[j]) != len(want.edges[j]) {
					t.Fatalf("%s: feature %d has %d edges, want %d", at, j, len(got.edges[j]), len(want.edges[j]))
				}
				for k, e := range want.edges[j] {
					if got.edges[j][k] != e {
						t.Fatalf("%s: feature %d edge %d = %v, want %v", at, j, k, got.edges[j][k], e)
					}
				}
				if len(gotCodes[j]) != len(wantCodes[j]) {
					t.Fatalf("%s: feature %d has %d codes, want %d", at, j, len(gotCodes[j]), len(wantCodes[j]))
				}
				for i, c := range wantCodes[j] {
					if gotCodes[j][i] != c {
						t.Fatalf("%s: feature %d row %d codes %d, want %d", at, j, i, gotCodes[j][i], c)
					}
				}
			}
			if len(wantLabels) == 0 {
				continue
			}
			for _, forestStyle := range []bool{false, true} {
				growWith := func(grow func([][]uint8, []bool, []int, Config) *Tree, codes [][]uint8) *Tree {
					rng := rand.New(rand.NewSource(oracleSeed))
					idx, cfg := make([]int, len(wantLabels)), Config{}
					for i := range idx {
						idx[i] = i
						if forestStyle {
							idx[i] = rng.Intn(len(idx))
						}
					}
					if forestStyle {
						cfg = Config{FeaturesPerSplit: int(math.Ceil(math.Sqrt(float64(len(cols))))), Rng: rng}
					}
					return grow(codes, wantLabels, idx, cfg)
				}
				assertSameTree(t, fmt.Sprintf("%s, forest-style %v", at, forestStyle),
					growWith(Grow, gotCodes), growWith(refGrow, wantCodes))
			}
		}
	}
}

func assertSameTree(t *testing.T, at string, got, want *Tree) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%s: %d nodes, want %d", at, len(got.nodes), len(want.nodes))
	}
	for i, nd := range want.nodes {
		if got.nodes[i] != nd {
			t.Fatalf("%s: node %d = %+v, want %+v", at, i, got.nodes[i], nd)
		}
	}
	for j, imp := range want.importance {
		if got.importance[j] != imp {
			t.Fatalf("%s: importance[%d] = %v, want %v", at, j, got.importance[j], imp)
		}
	}
}

// TestPresortMatchesOracleOnHostileColumns runs the oracle on the column
// shapes a sort key, a filtered walk or an edge merge could get wrong.
func TestPresortMatchesOracleOnHostileColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(oracleSeed))
	inf, nan := math.Inf(1), math.NaN()
	for _, n := range []int{1, 7, 100, 700} {
		cols := make([][]float64, 10)
		for j := range cols {
			cols[j] = make([]float64, n)
		}
		labels := make([]bool, n)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			cols[0][i] = v // continuous; n < maxBins for the small n
			cols[1][i] = v
			if rng.Intn(4) == 0 {
				cols[1][i] = nan // NaN holes
			}
			cols[2][i] = nan                  // all NaN: no edge
			cols[3][i] = 7                    // constant: one edge
			cols[4][i] = float64(rng.Intn(2)) // two values
			cols[5][i] = []float64{-inf, v, inf}[rng.Intn(3)]
			cols[6][i] = 3 // 90 % duplicates
			if rng.Intn(10) == 0 {
				cols[6][i] = v
			}
			cols[7][i] = []float64{math.Copysign(0, -1), 0, -v * v, v * v}[rng.Intn(4)] // ±0 between the signs
			cols[8][i] = math.Float64frombits(rng.Uint64())                             // every exponent, both signs; NaN at times
			cols[9][i] = float64(i / 3)                                                 // sorted already, in runs
			labels[i] = cols[4][i]+v+0.3*rng.NormFloat64() > 1
		}
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { CheckPresortOracle(t, cols, labels) })
	}
}

// TestPresortEmptyAndRagged pins the two shapes outside the oracle: a matrix
// without rows presorts and bins to nothing, ragged columns are a caller bug.
func TestPresortEmptyAndRagged(t *testing.T) {
	b, codes := Presort(make([][]float64, 3)).Bin(0, 0, MaxBins)
	if b.NumFeatures() != 3 || len(codes) != 3 || len(codes[0]) != 0 || !math.IsInf(b.Threshold(0, 0), 1) {
		t.Errorf("empty matrix: %d features, codes %v", b.NumFeatures(), codes)
	}
	for name, fn := range map[string]func(){
		"ragged":         func() { Presort([][]float64{{1, 2}, {1}}) },
		"range past n":   func() { Presort([][]float64{{1, 2}}).Bin(1, 3, 4) },
		"range inverted": func() { Presort([][]float64{{1, 2}}).Bin(2, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}
