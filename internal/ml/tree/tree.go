package tree

import (
	"fmt"
	"io"
	"math"
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

// Node is one node of a grown tree, in the one form growth writes, the
// forest walks and its artifact codec stores (16 bytes). An internal node's
// children are adjacent and after it: the left child sits at index Left, the
// right one at Left+1. A leaf is marked by Left < 0 and keeps in Val its
// anomaly probability.
//
// A split holds its raw threshold, the upper edge of its bin
// (Binner.Threshold), so the walk never bins: "go right iff v > Val" is
// exactly "code of v > bin" for every float64 — NaN compares false and goes
// left, as bin code 0 does; a bin past the last edge has threshold +Inf,
// which nothing exceeds.
type Node struct {
	Val     float64 // internal: go right iff row[Feature] > Val; leaf: anomaly probability
	Left    int32   // internal: index of the left child; leaf: -1
	Feature uint16  // split feature (internal nodes)
}

// maxFeatures is the most features a Node can index.
const maxFeatures = math.MaxUint16 + 1

// Grow grows one tree on the coded rows b encoded: codes[j][i] is the bucket
// of feature j of row i, labels[i] row i's ground truth, and idx the rows of
// the sample (repeats allowed; Grow reorders it in place). It returns the
// tree's nodes, root at 0, and its per-feature gini importances: each split's
// impurity decrease weighted by the fraction of the sample reaching it (the
// preliminary §4.4.2 builds on: features closer to the root separate more
// data), summing to at most 1.
//
// A node that splits appends its two children side by side at the end of the
// array and writes its raw threshold, then grows the left subtree, then the
// right. It panics on more than maxFeatures features or codes that are not
// b's, which are caller bugs.
func Grow(b *Binner, codes [][]uint8, labels []bool, idx []int, cfg Config) ([]Node, []float64) {
	if len(codes) > maxFeatures {
		panic(fmt.Sprintf("tree: %d features, a node indexes at most %d", len(codes), maxFeatures))
	}
	if len(codes) != len(b.edges) {
		panic(fmt.Sprintf("tree: binner built for %d features, got codes for %d", len(b.edges), len(codes)))
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if cfg.FeaturesPerSplit > 0 && cfg.Rng == nil {
		panic("tree: FeaturesPerSplit > 0 requires Rng")
	}
	g := grower{b: b, codes: codes, labels: labels, cfg: cfg, total: len(idx),
		nodes: make([]Node, 1), importance: make([]float64, len(codes)), featScratch: make([]int, len(codes))}
	for j := range g.featScratch {
		g.featScratch[j] = j
	}
	g.grow(0, idx)
	return g.nodes, g.importance
}

type grower struct {
	b           *Binner
	codes       [][]uint8
	labels      []bool
	cfg         Config
	nodes       []Node
	importance  []float64
	total       int
	featScratch []int
	hist        [MaxBins][2]int32
}

// grow writes node at for the samples idx: a leaf, or a split whose children
// it appends and then grows.
func (g *grower) grow(at int32, idx []int) {
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
	// Partition idx in place: codes ≤ bin to the left.
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
		return // degenerate split; keep the leaf
	}
	kids := int32(len(g.nodes))
	g.nodes = append(g.nodes, Node{}, Node{})
	g.nodes[at] = Node{Val: g.b.Threshold(feature, bin), Left: kids, Feature: uint16(feature)}
	if g.total > 0 {
		g.importance[feature] += gain * float64(n) / float64(g.total)
	}
	g.grow(kids, idx[:lo])
	g.grow(kids+1, idx[lo:])
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
		codes := g.codes[f]
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

// Prob returns the anomaly probability of the leaf a raw feature row reaches
// in the tree rooted at nodes[root]. It is the one inference walk: the
// forest sums it over its roots, the single CART calls it at root 0. It
// allocates nothing.
func Prob(nodes []Node, root int32, row []float64) float64 {
	nd := &nodes[root]
	for nd.Left >= 0 {
		i := nd.Left
		if row[nd.Feature] > nd.Val {
			i++
		}
		nd = &nodes[i]
	}
	return nd.Val
}

// Depth returns the maximum depth of the tree rooted at nodes[0] (root = 0).
func Depth(nodes []Node) int {
	var walk func(i int32) int
	walk = func(i int32) int {
		if nodes[i].Left < 0 {
			return 0
		}
		return 1 + max(walk(nodes[i].Left), walk(nodes[i].Left+1))
	}
	if len(nodes) == 0 {
		return 0
	}
	return walk(0)
}

// Print writes an indented if-then view of the tree rooted at nodes[0]
// (Fig. 5 style) down to maxDepth levels; names give feature names. cols and
// labels are the column-major rows the tree grew on, each once: a split cut
// off at maxDepth prints, as a leaf prints its own, the anomaly fraction of
// the rows reaching it, which the walk of those rows recounts.
func Print(w io.Writer, nodes []Node, names []string, cols [][]float64, labels []bool, maxDepth int) {
	if len(nodes) == 0 {
		return
	}
	reach := make([][2]int32, len(nodes)) // per node: rows reaching it, anomalies among them
	row := make([]float64, len(cols))
	for i, anomalous := range labels {
		for j, col := range cols {
			row[j] = col[i]
		}
		for at := int32(0); ; {
			reach[at][0]++
			if anomalous {
				reach[at][1]++
			}
			nd := &nodes[at]
			if nd.Left < 0 {
				break
			}
			at = nd.Left
			if row[nd.Feature] > nd.Val {
				at++
			}
		}
	}
	var walk func(i int32, depth int, indent string)
	walk = func(i int32, depth int, indent string) {
		nd := &nodes[i]
		if nd.Left < 0 || (maxDepth > 0 && depth >= maxDepth) {
			prob := float32(reach[i][1]) / float32(reach[i][0])
			verdict := "Normal"
			if prob >= 0.5 {
				verdict = "Anomaly"
			}
			fmt.Fprintf(w, "%s=> %s (p=%.2f)\n", indent, verdict, prob)
			return
		}
		fmt.Fprintf(w, "%sif severity[%s] <= %.3g:\n", indent, names[nd.Feature], nd.Val)
		walk(nd.Left, depth+1, indent+"  ")
		fmt.Fprintf(w, "%selse:\n", indent)
		walk(nd.Left+1, depth+1, indent+"  ")
	}
	walk(0, 0, "")
}
