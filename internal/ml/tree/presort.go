package tree

import (
	"fmt"
	"math"

	"opprentice/internal/fanout"
)

// Presorted is a column-major training matrix with every column argsorted
// once, so that each fit of a training round — the main forest, the
// cross-validation folds, the held-out halves, the one-vs-rest heads — reads
// its quantile edges and bucket codes off the same order instead of sorting
// and searching its own copy of the rows.
type Presorted struct {
	cols  [][]float64
	order [][]uint32 // order[j]: the non-NaN rows of column j, ascending by value
	n     int        // samples per column
}

// keyRow is one radix-sort record: a row and its order-preserving key.
type keyRow struct {
	key uint64
	row uint32
}

// Presort argsorts each column of cols (cols[j][i] is feature j of sample
// i; all columns the same length), leaving NaN rows out. It keeps a
// reference to cols, which must not change while the result is in use. The
// columns are sorted on fanout workers, each with its own radix buffers.
func Presort(cols [][]float64) *Presorted {
	ps := &Presorted{cols: cols, order: make([][]uint32, len(cols))}
	if len(cols) == 0 {
		return ps
	}
	n := len(cols[0])
	ps.n = n
	for j, col := range cols {
		if len(col) != n {
			panic(fmt.Sprintf("tree: feature %d has %d samples, want %d", j, len(col), n))
		}
	}
	order := make([]uint32, len(cols)*n)
	workers := fanout.Workers(len(cols))
	scratch := make([]keyRow, 2*workers*n) // worker w sorts in [2wn, 2wn+2n)
	fanout.Run(workers, len(cols), func(w, j int) {
		a, b := scratch[2*w*n:(2*w+1)*n], scratch[(2*w+1)*n:(2*w+2)*n]
		m := 0
		for i, v := range cols[j] {
			if v == v {
				a[m] = keyRow{sortKey(v), uint32(i)}
				m++
			}
		}
		ord := order[j*n : j*n+m : j*n+m]
		for i, kr := range radixSort(a[:m], b[:m]) {
			ord[i] = kr.row
		}
		ps.order[j] = ord
	})
	return ps
}

// Cols returns the matrix the order was built from.
func (ps *Presorted) Cols() [][]float64 { return ps.cols }

// sortKey maps a non-NaN float64 to a uint64 that orders the same way. The
// key is taken of v + 0, so −0 and +0 share one (they compare equal).
func sortKey(v float64) uint64 {
	b := math.Float64bits(v + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSort sorts src by key with a stable LSD byte radix, using dst (same
// length) as the other buffer, and returns whichever of the two holds the
// result. A byte every key shares is skipped: severities of one detector
// configuration share their sign and most of their exponent.
func radixSort(src, dst []keyRow) []keyRow {
	if len(src) < 2 {
		return src
	}
	var hist [8][256]uint32
	for _, kr := range src {
		k := kr.key
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	for b := range hist {
		h, shift := &hist[b], uint(b)*8
		if h[byte(src[0].key>>shift)] == uint32(len(src)) {
			continue
		}
		sum := uint32(0)
		for i, c := range h {
			h[i], sum = sum, sum+c
		}
		for _, kr := range src {
			d := byte(kr.key >> shift)
			dst[h[d]] = kr
			h[d]++
		}
		src, dst = dst, src
	}
	return src
}

// Bin learns a Binner from the rows outside [lo, hi) and encodes exactly
// those rows, later rows renumbered down by hi−lo: binned[j][i] is the code
// of feature j of the i-th kept sample. lo == hi keeps every row. maxBins is
// clamped to [2, 256].
//
// One filtered walk of a column's order yields the kept values already
// sorted, so the edges are the same k·len/maxBins picks a fresh sort of those
// rows would give; a two-pointer merge of the sorted values against the edges
// then yields each row's code — the number of edges strictly below its value,
// which is what Binner.Code searches for. An edge on a zero always reads +0
// (the walk takes v + 0, as the sort key does); −0 < +0 is false either way,
// so no code and no split threshold depends on the sign. The columns are
// binned on fanout workers, each with its own walk and edge buffers.
func (ps *Presorted) Bin(lo, hi, maxBins int) (*Binner, [][]uint8) {
	if lo < 0 || hi < lo || hi > ps.n {
		panic(fmt.Sprintf("tree: excluded rows [%d, %d) outside the %d presorted", lo, hi, ps.n))
	}
	bins := min(max(maxBins, 2), MaxBins) // not reassigned, so workers capture a copy
	kept := ps.n - (hi - lo)
	b := &Binner{edges: make([][]float64, len(ps.cols))}
	binned := make([][]uint8, len(ps.cols))
	codes := make([]uint8, len(ps.cols)*kept) // NaN rows keep code 0
	workers := fanout.Workers(len(ps.cols))
	// Worker w walks into stretch w of each buffer.
	valBuf, rowBuf := make([]float64, workers*kept), make([]uint32, workers*kept)
	edgeBuf := make([]float64, workers*(bins-1))
	ulo, uhi := uint32(lo), uint32(hi)
	fanout.Run(workers, len(ps.cols), func(w, j int) {
		col := ps.cols[j]
		vals, rows := valBuf[w*kept:w*kept:(w+1)*kept], rowBuf[w*kept:w*kept:(w+1)*kept]
		for _, r := range ps.order[j] {
			v := col[r] + 0
			if r >= ulo {
				if r < uhi {
					continue
				}
				r -= uhi - ulo
			}
			vals, rows = append(vals, v), append(rows, r)
		}
		edges := edgeBuf[w*(bins-1) : w*(bins-1) : (w+1)*(bins-1)]
		for k := 1; k < bins && len(vals) > 0; k++ {
			e := vals[k*len(vals)/bins]
			if len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		b.edges[j] = append([]float64(nil), edges...)
		binned[j] = codes[j*kept : (j+1)*kept : (j+1)*kept]
		e := 0
		for i, v := range vals {
			for e < len(edges) && edges[e] < v {
				e++
			}
			binned[j][rows[i]] = uint8(e)
		}
	})
	return b, binned
}
