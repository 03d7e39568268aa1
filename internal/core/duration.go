package core

// DurationFilter implements the §6 "anomaly duration" post-processor: raise
// an alarm only when at least MinPoints consecutive points are classified
// anomalous. The paper deliberately keeps duration out of the learning model
// and notes that "it is relatively easy to implement a duration filter based
// upon the point-level anomalies" — this is that filter, in both streaming
// and batch form.
//
// The streaming form is conservative about latency: it withholds judgment
// on a point until the run it belongs to either reaches MinPoints (the whole
// pending run is then released as anomalous) or ends early (released as
// normal). Feed it one point-level verdict at a time and act on the emitted
// decisions.
type DurationFilter struct {
	// MinPoints is the minimum run length that counts as an alarm (≥ 1).
	MinPoints int
	run       int
	confirmed bool
}

// Decision is the filter's judgment for one or more earlier points.
type Decision struct {
	// Anomalous applies to Count consecutive points ending at the filter's
	// current position minus Lag.
	Anomalous bool
	Count     int
}

// Step consumes the next point-level verdict and returns the decisions that
// became final with it (zero, one or two — a rejected pending run followed
// by the current normal point).
func (f *DurationFilter) Step(anomalous bool) []Decision {
	min := f.MinPoints
	if min < 1 {
		min = 1
	}
	var out []Decision
	switch {
	case anomalous && f.confirmed:
		out = append(out, Decision{Anomalous: true, Count: 1})
	case anomalous:
		f.run++
		if f.run >= min {
			out = append(out, Decision{Anomalous: true, Count: f.run})
			f.run = 0
			f.confirmed = true
		}
	default:
		if f.run > 0 {
			// Pending run died before reaching the minimum duration.
			out = append(out, Decision{Anomalous: false, Count: f.run})
			f.run = 0
		}
		f.confirmed = false
		out = append(out, Decision{Anomalous: false, Count: 1})
	}
	return out
}

// FilterByDuration is the batch form: it returns a copy of the point-level
// predictions with every anomalous run shorter than minPoints cleared.
func FilterByDuration(pred []bool, minPoints int) []bool {
	out := make([]bool, len(pred))
	if minPoints < 1 {
		minPoints = 1
	}
	i := 0
	for i < len(pred) {
		if !pred[i] {
			i++
			continue
		}
		j := i
		for j < len(pred) && pred[j] {
			j++
		}
		if j-i >= minPoints {
			for k := i; k < j; k++ {
				out[k] = true
			}
		}
		i = j
	}
	return out
}
