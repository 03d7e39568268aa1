// Package wavelet implements an undecimated ("à trous") Haar
// multi-resolution analysis, the signal-analysis substrate of the wavelet
// basic detector [Barford et al., IMW 2002]. The transform is computed
// incrementally: each new point costs O(levels), so the detector meets the
// paper's online requirement (§4.3.2) even with windows of several days.
//
// With A_0 = x, the analysis maintains for each level j ≥ 1
//
//	A_j[t] = (A_{j-1}[t] + A_{j-1}[t-2^{j-1}]) / 2   (smooth)
//	D_j[t] = A_{j-1}[t] - A_j[t]                      (detail)
//
// so that x[t] = D_1[t] + D_2[t] + … + D_L[t] + A_L[t]: the details
// partition the signal into frequency bands from high (D_1, fast jitter) to
// low (A_L, long-term level).
package wavelet

import "fmt"

// MRA is an incremental à-trous Haar multi-resolution analysis.
// Create it with NewMRA; the zero value is unusable.
type MRA struct {
	levels  int
	rings   [][]float64 // rings[j] holds the lag buffer of A_j (lag 2^j)
	pos     []int
	filled  []int
	n       int       // points consumed
	details []float64 // reused Push output buffer
}

// NewMRA returns an analysis with the given number of detail levels
// (1 ≤ levels ≤ 30).
func NewMRA(levels int) *MRA {
	if levels < 1 || levels > 30 {
		panic(fmt.Sprintf("wavelet: levels %d out of range [1,30]", levels))
	}
	m := &MRA{
		levels: levels,
		rings:  make([][]float64, levels),
		pos:    make([]int, levels),
		filled: make([]int, levels),
	}
	for j := 0; j < levels; j++ {
		m.rings[j] = make([]float64, 1<<j)
	}
	return m
}

// WarmUp returns the number of points needed before Push reports ready:
// the largest lag chain, 2^levels - 1.
func (m *MRA) WarmUp() int { return 1<<m.levels - 1 }

// Push consumes the next point and returns the detail coefficients
// D_1..D_levels and the final approximation A_levels at this time index.
// ready is false until the warm-up window has been seen; during warm-up the
// transform substitutes the current value for missing lagged ones, so the
// outputs are defined but not yet trustworthy.
//
// The returned details slice is owned by the analysis and overwritten by the
// next Push; callers that retain coefficients across points must copy them.
func (m *MRA) Push(x float64) (details []float64, approx float64, ready bool) {
	if m.details == nil {
		m.details = make([]float64, m.levels)
	}
	details = m.details
	a := x // A_{j-1}[t], starting at A_0 = x
	for j := 0; j < m.levels; j++ {
		ring := m.rings[j]
		lagged := a
		if m.filled[j] == len(ring) {
			lagged = ring[m.pos[j]]
		}
		ring[m.pos[j]] = a
		m.pos[j] = (m.pos[j] + 1) & (len(ring) - 1) // ring j holds 2^j points
		if m.filled[j] < len(ring) {
			m.filled[j]++
		}
		next := (a + lagged) / 2 // A_j[t]
		details[j] = a - next    // D_j[t]
		a = next
	}
	m.n++
	return details, a, m.n > m.WarmUp()
}

// Clone returns an independent analysis at the same stream position:
// pushing the same future points into the clone and the original yields
// bit-identical coefficients.
func (m *MRA) Clone() *MRA {
	c := &MRA{
		levels: m.levels,
		rings:  make([][]float64, len(m.rings)),
		pos:    append([]int(nil), m.pos...),
		filled: append([]int(nil), m.filled...),
		n:      m.n,
	}
	for j, r := range m.rings {
		c.rings[j] = append([]float64(nil), r...)
	}
	return c
}

// Reset returns the analysis to its initial state.
func (m *MRA) Reset() {
	for j := range m.rings {
		for i := range m.rings[j] {
			m.rings[j][i] = 0
		}
		m.pos[j], m.filled[j] = 0, 0
	}
	m.n = 0
}

// Band identifies a frequency band of the analysis, as sampled by the
// wavelet detector configurations in Table 3.
type Band int

// The three bands of Table 3's wavelet detector.
const (
	High Band = iota // finest scales: jitter, spikes
	Mid              // intermediate scales
	Low              // coarsest scales plus the residual approximation
)

// String returns the Table-3 name of the band.
func (b Band) String() string {
	switch b {
	case High:
		return "high"
	case Mid:
		return "mid"
	case Low:
		return "low"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// BandSplit partitions detail levels 1..levels into the three bands,
// returning for each band the (inclusive) level range [lo, hi]; Low also
// owns the final approximation. Levels are split as evenly as thirds allow,
// with high frequencies getting the finest levels.
func BandSplit(levels int) (ranges [3][2]int) {
	third := levels / 3
	if third == 0 {
		third = 1
	}
	hiEnd := third
	midEnd := 2 * third
	if midEnd >= levels {
		midEnd = levels - 1
	}
	if hiEnd > midEnd {
		hiEnd = midEnd
	}
	ranges[High] = [2]int{1, hiEnd}
	ranges[Mid] = [2]int{hiEnd + 1, midEnd}
	ranges[Low] = [2]int{midEnd + 1, levels}
	return ranges
}

// BandValue sums the detail coefficients of the band; for Low it also adds
// the deviation of the approximation from zero-mean (the caller typically
// feeds mean-removed data or tracks the approximation's own drift).
func BandValue(b Band, details []float64, approxDelta float64) float64 {
	ranges := BandSplit(len(details))
	lo, hi := ranges[b][0], ranges[b][1]
	sum := 0.0
	for lvl := lo; lvl <= hi && lvl <= len(details); lvl++ {
		sum += details[lvl-1]
	}
	if b == Low {
		sum += approxDelta
	}
	return sum
}
