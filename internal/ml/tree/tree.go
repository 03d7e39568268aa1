package tree

import (
	"fmt"
	"io"
	"math/rand"
)

// Config controls tree growth. A tree grows fully, until pure or MinLeaf,
// as random forests do (§4.4.2).
type Config struct {
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// FeaturesPerSplit is how many randomly chosen features each split
	// considers; 0 means all (plain CART). Random forests use √d.
	FeaturesPerSplit int
	// Rng drives feature subsampling; required when FeaturesPerSplit > 0.
	Rng *rand.Rand
}

// node is one tree node in the flattened node array.
type node struct {
	feature     int
	bin         uint8 // go left when code ≤ bin
	left, right int32
	prob        float32 // leaf anomaly probability
	leaf        bool
}

// Tree is a trained CART classifier over binned features.
type Tree struct {
	nodes []node
	// importance[j] is feature j's accumulated impurity decrease, weighted
	// by the fraction of training samples reaching each split (gini
	// importance, the preliminary §4.4.2 builds on: features closer to the
	// root separate more data).
	importance []float64
}

// Grow trains a tree on the binned column-major features restricted to the
// sample indices idx (which it reorders in place). labels[i] is the ground
// truth of sample i.
func Grow(binned [][]uint8, labels []bool, idx []int, cfg Config) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if cfg.FeaturesPerSplit > 0 && cfg.Rng == nil {
		panic("tree: FeaturesPerSplit > 0 requires Rng")
	}
	t := &Tree{importance: make([]float64, len(binned))}
	g := grower{binned: binned, labels: labels, cfg: cfg, t: t, total: len(idx)}
	g.featScratch = make([]int, len(binned))
	for j := range g.featScratch {
		g.featScratch[j] = j
	}
	g.grow(idx)
	return t
}

// Importances returns the per-feature gini importances of the tree, summing
// to at most 1 (0 for features never split on).
func (t *Tree) Importances() []float64 {
	return append([]float64(nil), t.importance...)
}

type grower struct {
	binned      [][]uint8
	labels      []bool
	cfg         Config
	t           *Tree
	total       int
	featScratch []int
	hist        [MaxBins][2]int32
}

// grow builds the subtree for samples idx and returns its node index.
func (g *grower) grow(idx []int) int32 {
	pos := 0
	for _, i := range idx {
		if g.labels[i] {
			pos++
		}
	}
	n := len(idx)
	prob := float32(pos) / float32(n)
	me := int32(len(g.t.nodes))
	g.t.nodes = append(g.t.nodes, node{leaf: true, prob: prob})
	if pos == 0 || pos == n || n < 2*g.cfg.MinLeaf {
		return me
	}
	feature, bin, gain, ok := g.bestSplit(idx, pos)
	if !ok {
		return me
	}
	// Partition idx in place: codes ≤ bin to the left.
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
		return me // degenerate split; keep the leaf
	}
	g.t.nodes[me].leaf = false
	g.t.nodes[me].feature = feature
	g.t.nodes[me].bin = bin
	if g.total > 0 {
		g.t.importance[feature] += gain * float64(n) / float64(g.total)
	}
	left := g.grow(idx[:lo])
	right := g.grow(idx[lo:])
	g.t.nodes[me].left = left
	g.t.nodes[me].right = right
	return me
}

// splitMargin is how far a bin's weighted impurity must sit above the best
// split's before bestSplit skips the bin unevaluated: six orders of magnitude
// over the relative rounding of either formula (≤ ~1e-15 at any node size),
// so a skipped bin could not have won.
const splitMargin = 1e-9

// bestSplit searches the (possibly subsampled) features for the split with
// the lowest weighted gini impurity, returning the impurity decrease.
func (g *grower) bestSplit(idx []int, pos int) (feature int, bin uint8, bestGain float64, ok bool) {
	n := len(idx)
	total := [2]int32{int32(n - pos), int32(pos)}

	feats := g.featScratch
	k := len(feats)
	if g.cfg.FeaturesPerSplit > 0 && g.cfg.FeaturesPerSplit < k {
		// Partial Fisher-Yates: move k random features to the front.
		k = g.cfg.FeaturesPerSplit
		for i := 0; i < k; i++ {
			j := i + g.cfg.Rng.Intn(len(feats)-i)
			feats[i], feats[j] = feats[j], feats[i]
		}
	}

	parentGini := gini(total)
	bestGain = 1e-12
	ok = false
	// In real arithmetic w = 2·(L0·L1·rn + R0·R1·ln)/(n·ln·rn), so a bin whose
	// L0·L1·rn + R0·R1·ln reaches cut·ln·rn, with cut =
	// (parentGini − bestGain + splitMargin)·n/2, cannot pass gain > bestGain:
	// it is skipped without a division. Every other bin runs the arithmetic
	// below unchanged.
	cut := (parentGini - bestGain + splitMargin) * float64(n) / 2
	for _, f := range feats[:k] {
		codes := g.binned[f]
		minBin, maxBin := uint8(MaxBins-1), uint8(0)
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
			if c < minBin {
				minBin = c
			}
		}
		// Every bin the node touched lies in [minBin, maxBin], and each is
		// zeroed as it is read, which leaves the histogram clear for the
		// next feature. A bin without samples cannot win: its left counts,
		// hence its gain, are the previous bin's, which the strict > has
		// already seen (or MinLeaf refused, as it would again). A node of n
		// samples so costs at most n evaluations, not up to 255.
		var left [2]int32
		for b := int(minBin); b < int(maxBin); b++ {
			h := g.hist[b]
			if h[0]|h[1] == 0 {
				continue
			}
			g.hist[b] = [2]int32{}
			left[0] += h[0]
			left[1] += h[1]
			ln := left[0] + left[1]
			rn := int32(n) - ln
			if ln < int32(g.cfg.MinLeaf) || rn < int32(g.cfg.MinLeaf) {
				continue
			}
			right := [2]int32{total[0] - left[0], total[1] - left[1]}
			if float64(left[0])*float64(left[1])*float64(rn)+float64(right[0])*float64(right[1])*float64(ln) >=
				cut*(float64(ln)*float64(rn)) {
				continue
			}
			w := (float64(ln)*gini(left) + float64(rn)*gini(right)) / float64(n)
			if gain := parentGini - w; gain > bestGain {
				bestGain = gain
				cut = (parentGini - bestGain + splitMargin) * float64(n) / 2
				feature, bin, ok = f, uint8(b), true
			}
		}
		g.hist[maxBin] = [2]int32{}
	}
	return feature, bin, bestGain, ok
}

// gini returns the gini impurity of a two-class count.
func gini(c [2]int32) float64 {
	n := float64(c[0] + c[1])
	if n == 0 {
		return 0
	}
	p := float64(c[1]) / n
	return 2 * p * (1 - p)
}

// Prob returns the anomaly probability of the leaf a binned sample reaches.
// at(j) must return the sample's code for feature j.
func (t *Tree) Prob(at func(j int) uint8) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.leaf {
			return float64(nd.prob)
		}
		if at(nd.feature) <= nd.bin {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// ProbCols classifies sample i of the column-major binned matrix.
func (t *Tree) ProbCols(binned [][]uint8, i int) float64 {
	return t.Prob(func(j int) uint8 { return binned[j][i] })
}

// NumNodes returns the node count (for size assertions and ablations).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NodeView is the exported description of one tree node, used by ensemble
// code (ml/forest) to flatten many trees into one contiguous node array for
// branch-predictable iterative inference.
type NodeView struct {
	Feature     int
	Bin         uint8 // go left when code ≤ Bin
	Left, Right int32 // child indices within this tree's own node array
	Prob        float32
	Leaf        bool
}

// Node returns the i-th node of the tree's internal (already flattened,
// root-at-0) node array.
func (t *Tree) Node(i int) NodeView {
	nd := &t.nodes[i]
	return NodeView{
		Feature: nd.feature,
		Bin:     nd.bin,
		Left:    nd.left,
		Right:   nd.right,
		Prob:    nd.prob,
		Leaf:    nd.leaf,
	}
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var walk func(i int32, d int) int
	walk = func(i int32, d int) int {
		nd := &t.nodes[i]
		if nd.leaf {
			return d
		}
		l := walk(nd.left, d+1)
		r := walk(nd.right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}

// Print writes an indented if-then view of the tree (Fig. 5 style) down to
// maxDepth levels. names give feature names; binner translates bin codes
// back to raw severity thresholds.
func (t *Tree) Print(w io.Writer, names []string, binner *Binner, maxDepth int) {
	var walk func(i int32, depth int, indent string)
	walk = func(i int32, depth int, indent string) {
		nd := &t.nodes[i]
		if nd.leaf || (maxDepth > 0 && depth >= maxDepth) {
			verdict := "Normal"
			if nd.prob >= 0.5 {
				verdict = "Anomaly"
			}
			fmt.Fprintf(w, "%s=> %s (p=%.2f)\n", indent, verdict, nd.prob)
			return
		}
		thr := binner.Threshold(nd.feature, nd.bin)
		fmt.Fprintf(w, "%sif severity[%s] <= %.3g:\n", indent, names[nd.feature], thr)
		walk(nd.left, depth+1, indent+"  ")
		fmt.Fprintf(w, "%selse:\n", indent)
		walk(nd.right, depth+1, indent+"  ")
	}
	if len(t.nodes) > 0 {
		walk(0, 0, "")
	}
}
