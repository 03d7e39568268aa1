package tree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

func refGrow(b *Binner, codes [][]uint8, labels []bool, idx []int, cfg Config) ([]Node, []float64) {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	g := refGrower{grower{b: b, codes: codes, labels: labels, cfg: cfg, total: len(idx),
		nodes: make([]Node, 1), importance: make([]float64, len(codes)), featScratch: make([]int, len(codes))}}
	for j := range g.featScratch {
		g.featScratch[j] = j
	}
	g.grow(0, idx)
	return g.nodes, g.importance
}

func (g *refGrower) grow(at int32, idx []int) {
	pos := 0
	for _, i := range idx {
		if g.labels[i] {
			pos++
		}
	}
	n := len(idx)
	g.nodes[at] = Node{Val: float64(float32(pos) / float32(n)), Left: -1}
	if pos == 0 || pos == n || n < 2*g.cfg.MinLeaf {
		return
	}
	feature, bin, gain, ok := g.bestSplit(idx, pos)
	if !ok {
		return
	}
	codes := g.codes[feature]
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
		return
	}
	kids := int32(len(g.nodes))
	g.nodes = append(g.nodes, Node{}, Node{})
	g.nodes[at] = Node{Val: g.b.Threshold(feature, bin), Left: kids, Feature: uint16(feature)}
	g.importance[feature] += gain * float64(n) / float64(g.total)
	g.grow(kids, idx[:lo])
	g.grow(kids+1, idx[lo:])
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
		codes := g.codes[f]
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
// identical codes, and, on those codes and edges, trees identical node for
// node (thresholds by ==, as the edges) whether grown on all features from every row or forest-style on √d
// features from a bootstrap sample, at each MinLeaf in minLeaves (1 when
// none is given). Exported so that the kpigen-severity oracle, which needs
// internal/core and so lives in package tree_test, can share it.
func CheckPresortOracle(t *testing.T, cols [][]float64, labels []bool, minLeaves ...int) {
	t.Helper()
	if len(minLeaves) == 0 {
		minLeaves = []int{1}
	}
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
			for _, minLeaf := range minLeaves {
				for _, forestStyle := range []bool{false, true} {
					growWith := func(grow func(*Binner, [][]uint8, []bool, []int, Config) ([]Node, []float64), b *Binner, codes [][]uint8) ([]Node, []float64) {
						rng := rand.New(rand.NewSource(oracleSeed))
						idx, cfg := make([]int, len(wantLabels)), Config{MinLeaf: minLeaf}
						for i := range idx {
							idx[i] = i
							if forestStyle {
								idx[i] = rng.Intn(len(idx))
							}
						}
						if forestStyle {
							cfg.FeaturesPerSplit, cfg.Rng = int(math.Ceil(math.Sqrt(float64(len(cols))))), rng
						}
						return grow(b, codes, wantLabels, idx, cfg)
					}
					gotNodes, gotImp := growWith(Grow, got, gotCodes)
					wantNodes, wantImp := growWith(refGrow, want, wantCodes)
					assertSameTree(t, fmt.Sprintf("%s, MinLeaf %d, forest-style %v", at, minLeaf, forestStyle),
						gotNodes, gotImp, wantNodes, wantImp)
				}
			}
		}
	}
}

func assertSameTree(t *testing.T, at string, got []Node, gotImp []float64, want []Node, wantImp []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, want %d", at, len(got), len(want))
	}
	for i, nd := range want {
		if got[i] != nd {
			t.Fatalf("%s: node %d = %+v, want %+v", at, i, got[i], nd)
		}
	}
	for j, imp := range wantImp {
		if gotImp[j] != imp {
			t.Fatalf("%s: importance[%d] = %v, want %v", at, j, gotImp[j], imp)
		}
	}
}

// TestPresortMatchesOracleOnHostileColumns runs the oracle on the column
// shapes a sort key, a filtered walk or an edge merge could get wrong.
func TestPresortMatchesOracleOnHostileColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(oracleSeed))
	for _, n := range []int{1, 7, 100, 700} {
		cols, labels := hostileColumns(rng, n)
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { CheckPresortOracle(t, cols, labels, 1, 3) })
	}
	for _, n := range []int{60, 600} {
		cols, labels := tiedColumns(rng, n)
		t.Run(fmt.Sprintf("ties/n=%d", n), func(t *testing.T) { CheckPresortOracle(t, cols, labels, 1, 3) })
	}
	t.Run("duplicates/n=20000", func(t *testing.T) {
		const n = 20000
		col, labels := make([]float64, n), make([]bool, n)
		for i := range col {
			v := rng.NormFloat64()
			col[i] = float64(rng.Intn(3)) // 95 % on three values
			if rng.Intn(20) == 0 {
				col[i] = v
			}
			labels[i] = col[i]+0.5*v > 1.5
		}
		CheckPresortOracle(t, [][]float64{col}, labels, 1, 3)
	})
}

// hostileColumns builds n rows of the column shapes a sort key, a filtered
// walk or an edge merge could get wrong.
func hostileColumns(rng *rand.Rand, n int) ([][]float64, []bool) {
	inf, nan := math.Inf(1), math.NaN()
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
	return cols, labels
}

// TestPresortSameAtEveryWorkerCount: Presort and Bin fan their columns out
// over GOMAXPROCS workers, which changes who sorts and bins a column but not
// its order, edges or codes: on the hostile and tied columns, one worker and
// four give equal results.
func TestPresortSameAtEveryWorkerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(oracleSeed))
	var mats [][][]float64
	for _, n := range []int{1, 7, 100, 700} {
		cols, _ := hostileColumns(rng, n)
		mats = append(mats, cols)
	}
	for _, n := range []int{60, 600} {
		cols, _ := tiedColumns(rng, n)
		mats = append(mats, cols)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cols := range mats {
		n := len(cols[0])
		var orders [2][][]uint32
		var binners [2]*Binner
		var codes [2][][]uint8
		for k, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			ps := Presort(cols)
			orders[k] = ps.order
			binners[k], codes[k] = ps.Bin(n/5, 2*n/5, MaxBins)
		}
		for j := range cols {
			if !slices.Equal(orders[0][j], orders[1][j]) {
				t.Fatalf("n=%d feature %d: order at 4 workers %v, at 1 %v", n, j, orders[1][j], orders[0][j])
			}
			if !slices.Equal(binners[0].edges[j], binners[1].edges[j]) || !slices.Equal(codes[0][j], codes[1][j]) {
				t.Fatalf("n=%d feature %d: edges or codes differ between 1 and 4 workers", n, j)
			}
		}
	}
}

// tiedColumns builds n rows on which many candidate splits have the same
// gain, exactly or to within a few ulps, so the split search's strict > and
// its scan order decide. The labels are balanced and a palindrome (n a
// multiple of 4), so the cut after k rows of a sorted column and the cut
// after n−k rows leave the same counts on swapped sides: the same gain, bit
// for bit, and so does the same cut on a reversed or duplicated column.
// Columns of a few values meet the same label counts at many bins and across
// features. A column read through a pairing of positive and negative rows
// turns every cut's counts (a, b) into (b, a): equal gains in real
// arithmetic, which rounding keeps equal only at times.
func tiedColumns(rng *rand.Rand, n int) ([][]float64, []bool) {
	labels := make([]bool, n)
	for k, i := range rng.Perm(n / 2) {
		labels[i] = k < n/4
		labels[n-1-i] = labels[i]
	}
	var pos, neg []int
	for i, l := range labels {
		if l {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	partner := make([]int, n)
	for k := range pos {
		partner[pos[k]], partner[neg[k]] = neg[k], pos[k]
	}
	cols := make([][]float64, 11)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		y := 0.0
		if labels[i] {
			y = 1
		}
		cols[0][i] = float64(i)         // sorted: mirrored cuts tie
		cols[1][i] = float64(n - 1 - i) // reversed: ties cols[0] cut for cut
		cols[2][i] = float64(i / 4)     // runs
		cols[3][i] = float64(rng.Intn(4))
		cols[4][i] = cols[3][i] // a duplicate: every cut ties across features
		cols[5][i] = float64(rng.Intn(3)) + y
		cols[6][i] = -cols[5][i] // the same cuts from the other end
		cols[7][i] = rng.NormFloat64() + 2*y
		cols[8][i] = float64(min(i, n-1-i)) // folded: pairs rows the palindrome pairs
	}
	for i := 0; i < n; i++ {
		cols[9][i] = cols[7][partner[i]] // class-swapped cuts of cols[7]
		cols[10][i] = cols[5][partner[i]]
	}
	return cols, labels
}

// TestPresortEmptyAndRagged pins the two shapes outside the oracle: a matrix
// without rows presorts and bins to nothing, ragged columns are a caller bug.
func TestPresortEmptyAndRagged(t *testing.T) {
	b, codes := Presort(make([][]float64, 3)).Bin(0, 0, MaxBins)
	if len(b.edges) != 3 || len(codes) != 3 || len(codes[0]) != 0 || !math.IsInf(b.Threshold(0, 0), 1) {
		t.Errorf("empty matrix: %d features, codes %v", len(b.edges), codes)
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
