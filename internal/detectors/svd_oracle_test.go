package detectors

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"opprentice/internal/kpigen"
)

// exactSVD is the SVD detector without sliding state: every step it lays the
// window out, rebuilds the Gram matrix, forms u1 = X·v1 and projects the
// test vector on it, O(rows·cols²) per point. It is what SVDDetector
// computed before the sums slid, and the oracle they are compared against.
type exactSVD struct {
	rows, cols int
	window     []float64 // the last rows·cols points, chronological
	v1         []float64
	warm       bool
}

func (d *exactSVD) Step(v float64) (float64, bool) {
	rows, cols := d.rows, d.cols
	if len(d.window) < rows*cols {
		d.window = append(d.window, v)
		return 0, false
	}
	w := d.window
	col := func(j int) []float64 { return w[j*rows : (j+1)*rows] }
	test := append(append([]float64(nil), w[len(w)-(rows-1):]...), v)
	d.window = append(w[1:], v)

	gram := make([]float64, cols*cols)
	for a := 0; a < cols; a++ {
		for b := 0; b < cols; b++ {
			for i := 0; i < rows; i++ {
				gram[a*cols+b] += col(a)[i] * col(b)[i]
			}
		}
	}
	if !d.warm || !finiteVec(d.v1) {
		d.v1 = make([]float64, cols)
		for j := range d.v1 {
			d.v1[j] = 1 / math.Sqrt(float64(cols))
		}
	}
	d.warm = true
	tmp := make([]float64, cols)
	for iter := 0; iter < 30; iter++ {
		norm := 0.0
		for a := 0; a < cols; a++ {
			tmp[a] = 0
			for b := 0; b < cols; b++ {
				tmp[a] += gram[a*cols+b] * d.v1[b]
			}
			norm += tmp[a] * tmp[a]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			d.warm = false
			return math.Abs(v), true
		}
		delta := 0.0
		for a := 0; a < cols; a++ {
			nv := tmp[a] / norm
			delta += math.Abs(nv - d.v1[a])
			d.v1[a] = nv
		}
		if delta < 1e-10 {
			break
		}
	}
	u1 := make([]float64, rows)
	uNorm := 0.0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			u1[i] += col(j)[i] * d.v1[j]
		}
		uNorm += u1[i] * u1[i]
	}
	uNorm = math.Sqrt(uNorm)
	if uNorm == 0 {
		return math.Abs(v), true
	}
	dot := 0.0
	for i := 0; i < rows; i++ {
		dot += u1[i] / uNorm * test[i]
	}
	return math.Abs(v - dot*u1[rows-1]/uNorm), true
}

// hostileStreams are inputs chosen to break sums that slide: values whose
// products swamp, overflow or poison a running sum, and level changes that
// leave a sum holding mostly what was subtracted from it. The planted
// streams put such values into copies of one ordinary ~100-level series,
// clean, so they also show what the detector reports once a value has left
// the window; the whole streams are hostile throughout.
func hostileStreams(n int) (clean []float64, planted, whole map[string][]float64) {
	rng := rand.New(rand.NewSource(1313))
	clean = make([]float64, n)
	for i := range clean {
		clean[i] = 100 + 10*math.Sin(float64(i)/9) + rng.NormFloat64()*3
	}
	// Where every shape is warm, a prime apart so that the values meet the
	// refresh schedule of each window size at a different phase.
	sites := []int{701, 1409, 2111, 2803, 3511}
	planted = make(map[string][]float64)
	plant := func(name string, width int, val func(site, k int) float64) {
		s := append([]float64(nil), clean...)
		for site, at := range sites {
			for k := 0; k < width; k++ {
				s[at+k] = val(site, k)
			}
		}
		planted[name] = s
	}
	for name, v := range map[string]float64{
		"spike-1e6": 1e6, "spike-1e9": 1e9, "spike-1e12": 1e12, "spike-1e150": 1e150,
		"spike-overflow": 1e200, "inf": math.Inf(1), "denormal-holes": 5e-324,
	} {
		plant(name, 1, func(site, _ int) float64 { return v * float64(1-site%2*2) })
	}
	plant("nan", 1, func(int, int) float64 { return math.NaN() })
	// NaN pairs one column apart, for each row count: one step after the
	// first holds a column's first slot, the second holds another's last.
	plant("nan-column-edges", 50, func(site, k int) float64 {
		if rows := 10 * (site + 1); k == 0 || k == rows-1 {
			return math.NaN()
		}
		return 100
	})
	// A spike that leaves in thirds: each point leaving the window is only
	// nine times the square of the next, so no single eviction looks large.
	plant("decay", 24, func(_, k int) float64 { return 1e12 / math.Pow(3, float64(k)) })

	whole = map[string][]float64{
		"denormals": make([]float64, n), "step-train": make([]float64, n),
		"zero-mean": make([]float64, n), "sparse-bursts": make([]float64, n),
	}
	for i := 0; i < n; i++ {
		whole["denormals"][i] = 5e-324
		whole["step-train"][i] = 10
		if (i/37)%2 == 1 {
			whole["step-train"][i] = 1000
		}
		whole["zero-mean"][i] = rng.NormFloat64()
		if rng.Float64() < 0.02 {
			whole["sparse-bursts"][i] = 5
		}
	}
	return clean, planted, whole
}

// TestSVDSlidingMatchesExact: the sliding sums are an implementation detail.
// On every stream and shape the detector is ready on the same points as the
// exact recomputation, NaN on the same points, and within 1e-9·(|v|+1) of it
// on all others. And a hostile value is forgotten with the window: once the
// last rows·cols+1 inputs are those of the clean series again, so is the
// severity, up to where the power iteration stopped (1e-6·(|v|+1)).
func TestSVDSlidingMatchesExact(t *testing.T) {
	const n = 5000
	clean, planted, streams := hostileStreams(n)
	for name, s := range contractStreams(n) {
		streams[name] = s
	}
	for name, s := range planted {
		streams[name] = s
	}
	for _, rows := range []int{10, 20, 30, 40, 50} {
		for _, cols := range []int{3, 5, 7} {
			cleanSev := make([]float64, n)
			for i, d := 0, NewSVD(rows, cols); i < n; i++ {
				cleanSev[i], _ = d.Step(clean[i])
			}
			for name, stream := range streams {
				t.Run(fmt.Sprintf("%dx%d/%s", rows, cols, name), func(t *testing.T) {
					got, want := NewSVD(rows, cols), &exactSVD{rows: rows, cols: cols}
					sinceHostile := 0
					for i, v := range stream {
						sev, ready := got.Step(v)
						exact, exactReady := want.Step(v)
						if ready != exactReady {
							t.Fatalf("point %d: ready %v, exact %v", i, ready, exactReady)
						}
						if math.IsNaN(sev) != math.IsNaN(exact) ||
							math.Abs(sev-exact) > 1e-9*(math.Abs(v)+1) {
							t.Fatalf("point %d (input %v): severity %v, exact %v (Δ %.3g)",
								i, v, sev, exact, math.Abs(sev-exact))
						}
						if sinceHostile++; planted[name] == nil || v != clean[i] {
							sinceHostile = 0
						}
						if sinceHostile > rows*cols &&
							!(math.Abs(sev-cleanSev[i]) <= 1e-6*(math.Abs(v)+1)) {
							t.Fatalf("point %d, %d after the last hostile value: severity %v, %v on the clean series",
								i, sinceHostile, sev, cleanSev[i])
						}
					}
				})
			}
		}
	}
}

// loopSVD is the SVD detector with every power round taken by the generic
// loop, as all of them were before PR 24 wrote the rows out for Table 3's
// column counts: the same ring and sliding sums, and the former
// subspaceResidual word for word around mulGramLoop.
type loopSVD struct{ *SVDDetector }

func (d loopSVD) Step(v float64) (float64, bool) {
	if !d.hist.full {
		return d.SVDDetector.Step(v)
	}
	sev := d.residual(v)
	d.slide(v)
	return sev, true
}

func (d loopSVD) residual(v float64) float64 {
	rows, cols := d.rows, d.cols
	if !d.warm || !finiteVec(d.v1) {
		for j := range d.v1 {
			d.v1[j] = 1 / math.Sqrt(float64(cols))
		}
	}
	d.warm = true
	for iter := 0; iter < 30; iter++ {
		norm := math.Sqrt(mulGramLoop(d.gram, d.v1, d.tmp))
		if norm == 0 {
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
	mulGramLoop(d.gram, d.v1, d.tmp)
	uNorm := 0.0
	for a, s := range d.tmp {
		uNorm += d.v1[a] * s
	}
	if uNorm <= 0 {
		return math.Abs(v)
	}
	uNorm = math.Sqrt(uNorm)
	dot, uLast := 0.0, 0.0
	for j := 0; j < cols; j++ {
		last := d.hist.at(j*rows + rows - 1)
		dot += d.v1[j] * (d.cross[j] + last*v)
		uLast += d.v1[j] * last
	}
	return math.Abs(v - dot/uNorm*uLast/uNorm)
}

// TestSVDPowerRoundMatchesLoop: writing the Gram rows out changes how the
// power round is compiled, not what it computes. Every severity of all 15
// Table-3 shapes equals the generic loop's to the bit — signs of zeros and
// NaN payloads included — on the contract and hostile streams and on nine
// weeks of each generated KPI, and so does a shape outside Table 3, which
// takes the loop itself.
func TestSVDPowerRoundMatchesLoop(t *testing.T) {
	_, planted, streams := hostileStreams(5000)
	for name, s := range planted {
		streams[name] = s
	}
	for name, s := range contractStreams(5000) {
		streams[name] = s
	}
	for _, profile := range []func(kpigen.Scale) kpigen.Profile{kpigen.PV, kpigen.SR, kpigen.SRT} {
		p := profile(kpigen.Small)
		p.Interval, p.Weeks = time.Hour, 9
		streams["kpigen-"+p.Name] = kpigen.Generate(p, 2424).Series.Values
	}
	shapes := [][2]int{{12, 4}} // outside Table 3
	for _, rows := range []int{10, 20, 30, 40, 50} {
		for _, cols := range []int{3, 5, 7} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	for _, shape := range shapes {
		sameBits(t, streams, func() (got, want Detector) {
			return NewSVD(shape[0], shape[1]), loopSVD{NewSVD(shape[0], shape[1])}
		})
	}
}
