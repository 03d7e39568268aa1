package active

import "sort"

// mergeGap is how close (in points) a new uncertain point must be to the
// queue's most recent window to extend it instead of opening a new one: a
// burst of near-threshold points separated by a point or two of confidence
// is one operator question, not several.
const mergeGap = 2

// queue is the bounded top-K store of uncertain windows. Windows are kept in
// start order (observation indices are strictly increasing, so only the last
// window can ever absorb a new point) in a slice preallocated to capacity:
// observe never allocates.
type queue struct {
	band float64
	cap  int
	win  []Window
}

func (q *queue) init(band float64, depth int) {
	q.band = band
	q.cap = depth
	q.win = make([]Window, 0, depth)
}

// observe considers one trained verdict for querying. Score is 1 at the
// threshold falling linearly to 0 at the band edge, so eviction keeps the
// windows whose points the forest was most torn about.
func (q *queue) observe(index int, prob, cthld float64) {
	d := prob - cthld
	if d < 0 {
		d = -d
	}
	if d > q.band {
		return
	}
	score := 1 - d/q.band
	if n := len(q.win); n > 0 && index <= q.win[n-1].End+mergeGap {
		w := &q.win[n-1]
		w.End = index + 1
		w.Points++
		if score > w.Score {
			w.Score = score
		}
		return
	}
	if len(q.win) == q.cap {
		// Evict the lowest-scoring window (oldest among ties) to keep the
		// top-K; if the newcomer itself scores lowest, it simply never
		// enters.
		lo := 0
		for i := 1; i < len(q.win); i++ {
			if q.win[i].Score < q.win[lo].Score {
				lo = i
			}
		}
		if q.win[lo].Score >= score {
			return
		}
		copy(q.win[lo:], q.win[lo+1:])
		q.win = q.win[:len(q.win)-1]
	}
	q.win = append(q.win, Window{Start: index, End: index + 1, Score: score, Points: 1})
}

// snapshot appends a copy of the pending windows to buf, most uncertain
// first (ties oldest first for stable operator ordering).
func (q *queue) snapshot(buf []Window) []Window {
	n := len(buf)
	buf = append(buf, q.win...)
	out := buf[n:]
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return buf
}

// remove drops the window exactly matching [start, end).
func (q *queue) remove(start, end int) bool {
	for i, w := range q.win {
		if w.Start == start && w.End == end {
			copy(q.win[i:], q.win[i+1:])
			q.win = q.win[:len(q.win)-1]
			return true
		}
	}
	return false
}

func (q *queue) reset() { q.win = q.win[:0] }
