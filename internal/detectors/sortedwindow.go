package detectors

import "math"

// sortedWindow is a fixed-capacity FIFO window that also keeps its values
// sorted, so the robust detectors read a median in O(1) and a MAD in one
// outward walk instead of copying and selecting the window twice per point.
// An arrival costs two binary searches and one copy of the values between
// the evicted slot and the inserted one.
//
// It is a view: fifo and sorted are equal-length pieces of the owning
// detector's slab (windowAt), and the owner passes the number of pushes
// made so far, which for a phase window follows from the stream position.
// Only the first min(n, cap) entries of either piece hold values.
//
// Order and special values are defined, so a statistic depends on the
// window's contents alone, never on where the FIFO has rotated to:
//   - NaN sorts after +Inf (a missing point is the largest value; a window
//     more than half missing has a NaN median);
//   - a deviation |x − median| that is NaN — x is NaN, or Inf − Inf — counts
//     as the largest deviation, so the MAD is NaN exactly when the median is
//     NaN or infinite (half the window then deviates by NaN);
//   - −0 and +0 are one value; which of them a statistic returns is
//     unspecified and cannot reach a severity, which takes absolute values.
type sortedWindow struct {
	fifo   []float64 // arrival order; push n lands in slot n mod cap
	sorted []float64 // the same values ascending, NaN last
}

// windowAt is the window of the given capacity at the front of slab.
func windowAt(slab []float64, capacity int) sortedWindow {
	return sortedWindow{fifo: slab[:capacity:capacity], sorted: slab[capacity : 2*capacity : 2*capacity]}
}

// searchSorted returns the first index of s whose value is not ordered
// before v (NaN last): where v is if present, and where it would be inserted.
func searchSorted(s []float64, v float64) int {
	if v != v {
		i := len(s)
		for i > 0 && s[i-1] != s[i-1] {
			i--
		}
		return i
	}
	// Lower bound by halving; the step is arithmetic on a 0/1 flag because a
	// branch here is mispredicted every other round on noisy data.
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		base += half & -lessFlag(s[base+half-1], v)
		n -= half
	}
	if n == 1 {
		base += lessFlag(s[base], v)
	}
	return base
}

// lessFlag is 1 when a < b and 0 otherwise (also when either is NaN).
func lessFlag(a, b float64) int {
	f := 0
	if a < b {
		f = 1
	}
	return f
}

// push records v as arrival number n (counting from 0), evicting the oldest
// value once the window is full.
func (w sortedWindow) push(n int, v float64) {
	c := len(w.fifo)
	if n < c {
		s := w.sorted[:n+1]
		j := searchSorted(s[:n], v)
		copy(s[j+1:], s[j:n])
		s[j] = v
		w.fifo[n] = v
		return
	}
	slot := n % c
	old := w.fifo[slot]
	w.fifo[slot] = v
	s := w.sorted
	i, j := searchSorted(s, old), searchSorted(s, v)
	if j > i {
		// v lands above the evicted slot: close the gap downwards.
		copy(s[i:], s[i+1:j])
		s[j-1] = v
	} else {
		copy(s[j+1:i+1], s[j:i])
		s[j] = v
	}
}

// medianSorted is the median of a non-empty ascending window: the middle
// value, or the mean of the two middle values.
func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// madSorted is the median absolute deviation of the non-empty ascending
// window s around med = medianSorted(s). Deviations grow monotonically away
// from the median on either side, so the smallest n/2+1 of them come off a
// two-pointer merge that starts at the middle and walks outward; each is
// the same subtraction the sort-the-deviations definition performs.
func madSorted(s []float64, med float64) float64 {
	if nan := med - med; nan != 0 {
		return nan // NaN or infinite median: see sortedWindow
	}
	n := len(s)
	hi := n // NaN values sort last and deviate most: the walk never needs them
	for s[hi-1] != s[hi-1] {
		hi--
	}
	// dl and dr are the next deviation on either side, NaN once a side is
	// used up; hi > n/2 (the median is finite), so never both.
	l, r := (n-1)/2, (n-1)/2+1
	dl, dr := math.Abs(s[l]-med), math.NaN()
	if r < hi {
		dr = math.Abs(s[r] - med)
	}
	var prev, cur float64
	for k := 0; k <= n/2; k++ {
		prev = cur
		if dl <= dr || dr != dr {
			cur, dl = dl, math.NaN()
			if l--; l >= 0 {
				dl = math.Abs(s[l] - med)
			}
		} else {
			cur, dr = dr, math.NaN()
			if r++; r < hi {
				dr = math.Abs(s[r] - med)
			}
		}
	}
	if n%2 == 1 {
		return cur
	}
	return (prev + cur) / 2
}

// madSeverity is the robust severity |v − med| / (mad + eps). An infinite
// reading against a finite window is reported NaN — absent, like a missing
// point — never +Inf.
func madSeverity(v, med, mad float64) float64 {
	sev := math.Abs(v-med) / (mad + eps)
	if math.IsInf(sev, 1) {
		return math.NaN()
	}
	return sev
}
