package forest

import (
	"fmt"
	"math"
)

// Flattened ensemble inference. Training grows each tree over binned
// features as its own node array; buildFlat then packs ALL trees of the
// ensemble into one contiguous node slice that holds raw thresholds, so
// inference never bins: a node's threshold is the upper edge of its bin
// (tree.Binner.Threshold), and "go right iff v > thr" is exactly
// "Code(v) > bin" for every float64 — NaN compares false and goes left, as
// bin code 0 does; a bin past the last edge has threshold +Inf, which nothing
// exceeds. Inference walks that single array iteratively — no per-tree
// pointer chase, no closure indirection, no per-call allocation — and reads
// only the few dozen features the walked splits test.

// flatNode is one packed node of the cross-tree flat array (16 bytes).
// An internal node's children are adjacent: the left child sits at index
// left, the right child at left+1. A leaf is marked by left < 0 and keeps
// in val what it adds to the ensemble sum: its anomaly probability, or its
// 0/1 vote under MajorityVote.
type flatNode struct {
	val     float64 // internal: go right iff row[feature] > val; leaf: contribution
	left    int32   // internal: index of the left child; leaf: -1
	feature uint16  // split feature (internal nodes)
}

// buildFlat packs every tree's nodes into f.flat and records each tree's
// root index in f.roots. Called once after Train and Load; inference then
// never touches f.trees or the binner's edges. It fails on what only a
// corrupt snapshot can hold: a feature index outside the binner's (or past
// what flatNode.feature can store), or child links that do not form a tree.
func (f *Forest) buildFlat() error {
	d := f.binner.NumFeatures()
	if d > math.MaxUint16+1 {
		return fmt.Errorf("forest: %d features, the flat node array indexes at most %d", d, math.MaxUint16+1)
	}
	total := 0
	for _, t := range f.trees {
		total += t.NumNodes()
	}
	f.flat = make([]flatNode, 0, total)
	f.roots = make([]int32, len(f.trees))
	var pending [][2]int32 // (tree node, flat slot) pairs still to be written
	for ti, t := range f.trees {
		root := int32(len(f.flat))
		f.roots[ti] = root
		f.flat = append(f.flat, flatNode{})
		pending = append(pending[:0], [2]int32{0, root})
		for len(pending) > 0 {
			src, dst := pending[len(pending)-1][0], pending[len(pending)-1][1]
			pending = pending[:len(pending)-1]
			nd := t.Node(int(src))
			if nd.Leaf {
				f.flat[dst] = flatNode{val: f.leafValue(nd.Prob), left: -1}
				continue
			}
			kids := int32(len(f.flat))
			if nd.Feature < 0 || nd.Feature >= d || int(kids-root)+2 > t.NumNodes() {
				return fmt.Errorf("forest: tree %d node %d is corrupt (feature %d of %d, or its links form no tree)", ti, src, nd.Feature, d)
			}
			f.flat = append(f.flat, flatNode{}, flatNode{})
			f.flat[dst] = flatNode{
				val:     f.binner.Threshold(nd.Feature, nd.Bin),
				left:    kids,
				feature: uint16(nd.Feature),
			}
			pending = append(pending, [2]int32{nd.Right, kids + 1}, [2]int32{nd.Left, kids})
		}
	}
	return nil
}

// leafValue is what a leaf with anomaly probability p adds to the ensemble
// sum: p itself, or its vote under MajorityVote.
func (f *Forest) leafValue(p float32) float64 {
	if !f.majorityVote {
		return float64(p)
	}
	if p >= 0.5 {
		return 1
	}
	return 0
}

// probRow runs the whole ensemble over one dense feature row and combines
// the leaves (mean leaf probability, or vote fraction under MajorityVote).
// It is the only inference walker; zero allocations.
func (f *Forest) probRow(row []float64) float64 {
	flat := f.flat
	sum := 0.0
	for _, i := range f.roots {
		nd := &flat[i]
		for nd.left >= 0 {
			i = nd.left
			if row[nd.feature] > nd.val {
				i++
			}
			nd = &flat[i]
		}
		sum += nd.val
	}
	return sum / float64(len(f.roots))
}

// probColsRange classifies samples [lo, hi) of the column-major feature
// matrix into out, gathering each sample into a row for probRow (consecutive
// samples share the cache lines of every column, so the gather stays in L1).
func (f *Forest) probColsRange(cols [][]float64, out []float64, lo, hi int) {
	row := make([]float64, len(cols))
	for s := lo; s < hi; s++ {
		for j, col := range cols {
			row[j] = col[s]
		}
		out[s] = f.probRow(row)
	}
}
