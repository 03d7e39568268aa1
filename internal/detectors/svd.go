package detectors

import (
	"fmt"
	"math"
)

// SVDDetector implements the singular-value-decomposition detector [7] as a
// subspace method: the previous rows×cols points (excluding the incoming
// one) are arranged column-wise into a rows×cols history matrix whose
// dominant singular direction captures the locally repeating temporal
// shape. The most recent rows points — ending at the incoming value — form
// a test vector that is projected onto that normal subspace; the severity is
// the magnitude of the incoming point's component left outside it. Learning
// the subspace strictly from history keeps a single spike from hijacking the
// dominant direction. Table 3 sweeps rows ∈ {10..50} and cols ∈ {3, 5, 7},
// 15 configurations.
//
// The dominant singular pair is obtained by power iteration on the
// cols×cols Gram matrix G = XᵀX (algebraically identical to the top SVD
// component), and the residual is read off sums over the window rather than
// the window itself: with u1 = X·v1, |u1|² = v1ᵀGv1, u1·test = Σ v1[j]·c[j]
// where c[j] is column j's product with the test vector, and u1's last
// element needs only the last matrix row.
//
// The window moves by one point per step, so G and c are kept as sliding
// sums: every entry loses the product that leaves its column and gains the
// one that enters, and a step costs O(cols²) and reads ~2·cols ring slots —
// well inside the online requirement of §4.3.2. Like v1, the sums are
// streaming state, a deterministic function of the stream since Reset.
// They are recomputed exactly from the ring (refresh) when the ring fills,
// every rows·cols pushes so rounding drift never outlives one window
// turnover, whenever a sum goes non-finite, and whenever the largest point
// folded into them since the last refresh dwarfs what the window now holds
// — a subtraction that large leaves only its rounding error behind.
type SVDDetector struct {
	rows, cols int
	hist       *ring     // the window; matrix column j is at(j·rows) … at(j·rows+rows−1)
	gram       []float64 // cols×cols sliding XᵀX of the history in hist
	cross      []float64 // sliding c[j] over the history, i.e. without the incoming point's term
	v1         []float64 // top right singular vector; warm-started across steps
	tmp        []float64 // G·v1 scratch
	edge       []float64 // slide scratch: first point of each column, then the incoming point
	age        int       // pushes since the last refresh
	peak       float64   // largest squared point folded into the sums since the last refresh
	// warm records that v1 holds the previous step's converged direction.
	// The history matrix shifts by one point per step, so its dominant
	// direction moves slowly; seeding the power iteration from the previous
	// answer converges in a few iterations instead of ~30.
	warm bool
}

// svdCancel is how many times the window's sum of squares the largest point
// folded into the sliding sums may reach before they are recomputed: past
// it, what remains of the sums is below 1/svdCancel of a term subtracted
// from them, and its relative error grows by that factor.
const svdCancel = 16

// NewSVD returns an SVD detector with the given matrix shape.
func NewSVD(rows, cols int) *SVDDetector {
	if rows < 2 || cols < 2 {
		panic(fmt.Sprintf("detectors: svd shape %d×%d", rows, cols))
	}
	return &SVDDetector{
		rows: rows, cols: cols,
		hist:  newRing(rows * cols),
		gram:  make([]float64, cols*cols),
		cross: make([]float64, cols),
		v1:    make([]float64, cols),
		tmp:   make([]float64, cols),
		edge:  make([]float64, cols+1),
	}
}

// Name implements Detector.
func (d *SVDDetector) Name() string {
	return fmt.Sprintf("svd(row=%d,col=%d)", d.rows, d.cols)
}

// Step implements Detector.
func (d *SVDDetector) Step(v float64) (float64, bool) {
	if !d.hist.full {
		d.hist.push(v)
		if d.hist.full {
			d.refresh()
		}
		return 0, false
	}
	sev := d.subspaceResidual(v)
	d.slide(v)
	return sev, true
}

// mulGram sets tmp = G·v1 and returns |tmp|². It is the inner loop of the
// power iteration: for Table 3's column counts each row's dot product is
// written out with v1 held in locals, so the compiler keeps the vector in
// registers instead of reloading it past every store to tmp. The sums run in
// mulGramLoop's order — from 0.0, left to right — so every result is the same
// to the bit; other shapes take the loop.
func (d *SVDDetector) mulGram() float64 {
	v, tmp, gram := d.v1, d.tmp, d.gram
	norm2 := 0.0
	switch len(v) {
	case 3:
		v0, v1, v2 := v[0], v[1], v[2]
		for a := range tmp[:3] {
			g := gram[a*3:][:3]
			s := 0.0 + g[0]*v0 + g[1]*v1 + g[2]*v2
			tmp[a] = s
			norm2 += s * s
		}
	case 5:
		v0, v1, v2, v3, v4 := v[0], v[1], v[2], v[3], v[4]
		for a := range tmp[:5] {
			g := gram[a*5:][:5]
			s := 0.0 + g[0]*v0 + g[1]*v1 + g[2]*v2 + g[3]*v3 + g[4]*v4
			tmp[a] = s
			norm2 += s * s
		}
	case 7:
		v0, v1, v2, v3, v4, v5, v6 := v[0], v[1], v[2], v[3], v[4], v[5], v[6]
		for a := range tmp[:7] {
			g := gram[a*7:][:7]
			s := 0.0 + g[0]*v0 + g[1]*v1 + g[2]*v2 + g[3]*v3 + g[4]*v4 + g[5]*v5 + g[6]*v6
			tmp[a] = s
			norm2 += s * s
		}
	default:
		return mulGramLoop(gram, v, tmp)
	}
	return norm2
}

// mulGramLoop is mulGram for any shape, and the oracle its written-out rows
// are tested against.
func mulGramLoop(gram, v1, tmp []float64) float64 {
	tmp = tmp[:len(v1)]
	norm2 := 0.0
	for a := range tmp {
		s := 0.0
		for b, g := range gram[a*len(v1):][:len(v1)] {
			s += g * v1[b]
		}
		tmp[a] = s
		norm2 += s * s
	}
	return norm2
}

// subspaceResidual learns the dominant direction of the history matrix and
// returns |last element of (test - projection onto that direction)|, where
// the test vector is the latest rows-1 history points followed by v.
func (d *SVDDetector) subspaceResidual(v float64) float64 {
	rows, cols := d.rows, d.cols
	// Power iteration for the dominant eigenvector v1 of G, warm-started
	// from the previous step's direction when it is usable.
	if !d.warm || !finiteVec(d.v1) {
		for j := range d.v1 {
			d.v1[j] = 1 / math.Sqrt(float64(cols))
		}
	}
	d.warm = true
	for iter := 0; iter < 30; iter++ {
		norm := math.Sqrt(d.mulGram())
		if norm == 0 {
			// All-zero history, or one so large that the previous norm
			// overflowed and divided v1 down to zero: the whole test point
			// is residual, and v1 is no direction to start from next time.
			d.warm = false
			return math.Abs(v)
		}
		delta := 0.0
		for a := 0; a < cols; a++ {
			nv := d.tmp[a] / norm
			delta += math.Abs(nv - d.v1[a])
			d.v1[a] = nv
		}
		if delta < 1e-10 {
			break
		}
	}
	// |u1|² = v1ᵀGv1 for u1 = X·v1, the dominant temporal shape.
	d.mulGram()
	uNorm := 0.0
	for a, s := range d.tmp {
		uNorm += d.v1[a] * s
	}
	if uNorm <= 0 {
		return math.Abs(v)
	}
	uNorm = math.Sqrt(uNorm)
	// Residual of the test vector outside span(u1), at its last element.
	dot, uLast := 0.0, 0.0
	for j := 0; j < cols; j++ {
		last := d.hist.at(j*rows + rows - 1)
		dot += d.v1[j] * (d.cross[j] + last*v)
		uLast += d.v1[j] * last
	}
	approx := dot / uNorm * uLast / uNorm
	return math.Abs(v - approx)
}

// slide pushes v and moves the sums one point along with the window.
func (d *SVDDetector) slide(v float64) {
	rows, cols := d.rows, d.cols
	x := d.edge // x[a] leaves column a, x[a+1] enters it
	for a := 0; a < cols; a++ {
		x[a] = d.hist.at(a * rows)
	}
	x[cols] = v
	z := d.hist.at((cols-1)*rows + 1) // test-vector partner of every x[a]
	trace := 0.0
	for a := 0; a < cols; a++ {
		d.cross[a] += d.hist.at(a*rows+rows-1)*v - x[a]*z
		for b := a; b < cols; b++ {
			g := d.gram[a*cols+b] - x[a]*x[b] + x[a+1]*x[b+1]
			d.gram[a*cols+b] = g
			d.gram[b*cols+a] = g
		}
		trace += d.gram[a*cols+a]
	}
	d.hist.push(v)
	d.age++
	d.peak = max(d.peak, v*v)
	// trace is the window's sum of squares: non-finite exactly when a point
	// or its square is, and then so is some sum.
	if d.age == rows*cols || trace-trace != 0 || d.peak > svdCancel*trace {
		d.refresh()
	}
}

// refresh recomputes the sums exactly from the full ring.
func (d *SVDDetector) refresh() {
	rows, cols := d.rows, d.cols
	for a := 0; a < cols; a++ {
		for b := a; b < cols; b++ {
			s := 0.0
			for i := 0; i < rows; i++ {
				s += d.hist.at(a*rows+i) * d.hist.at(b*rows+i)
			}
			d.gram[a*cols+b] = s
			d.gram[b*cols+a] = s
		}
		s := 0.0
		for i := 0; i < rows-1; i++ {
			s += d.hist.at(a*rows+i) * d.hist.at((cols-1)*rows+1+i)
		}
		d.cross[a] = s
	}
	d.age, d.peak = 0, 0
	for _, p := range d.hist.buf {
		d.peak = max(d.peak, p*p)
	}
}

// Reset implements Detector. The sums need no clearing: the refresh when the
// ring next fills overwrites all of them.
func (d *SVDDetector) Reset() {
	d.hist.reset()
	d.warm = false
}

// finiteVec reports whether every element of xs is finite.
func finiteVec(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
