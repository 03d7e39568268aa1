package core

// FilterByDuration implements the §6 "anomaly duration" post-processor: it
// returns a copy of the point-level predictions with every anomalous run
// shorter than minPoints cleared. The paper deliberately keeps duration out
// of the learning model and notes that "it is relatively easy to implement a
// duration filter based upon the point-level anomalies" — this is that
// filter, applied to a whole run's predictions.
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
