// Package timeseries provides the KPI time-series data model used throughout
// the Opprentice reproduction: fixed-interval (timestamp, value) series,
// seasonal indexing, point labels, anomaly windows, and descriptive
// statistics such as the coefficient of variation reported in Table 1 of the
// paper.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Day and Week are the seasonal periods used by the seasonal detectors.
const (
	Day  = 24 * time.Hour
	Week = 7 * Day
)

// Series is a fixed-interval KPI time series. The point i carries the value
// Values[i] observed at Start + i*Interval. Missing, when non-nil, marks
// points that were not observed ("dirty data" in the paper); such points keep
// a placeholder value (usually the previous observation) so that detectors
// can stream over them.
type Series struct {
	Name     string
	Start    time.Time
	Interval time.Duration
	Values   []float64
	Missing  []bool
}

// New returns an empty series with the given name, origin and interval.
// It panics if interval is not positive, since every index computation
// divides by it.
func New(name string, start time.Time, interval time.Duration) *Series {
	if interval <= 0 {
		panic("timeseries: non-positive interval")
	}
	return &Series{Name: name, Start: start, Interval: interval}
}

// Len returns the number of points in the series.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of point i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Interval)
}

// Append adds a point observed at the next interval.
func (s *Series) Append(v float64) {
	s.Values = append(s.Values, v)
	if s.Missing != nil {
		s.Missing = append(s.Missing, false)
	}
}

// AppendMissing adds a placeholder for an unobserved point. The placeholder
// value repeats the previous observation (or 0 for the first point) so that
// windowed detectors stay numerically well-behaved.
func (s *Series) AppendMissing() {
	v := 0.0
	if n := len(s.Values); n > 0 {
		v = s.Values[n-1]
	}
	if s.Missing == nil {
		s.Missing = make([]bool, len(s.Values))
	}
	s.Values = append(s.Values, v)
	s.Missing = append(s.Missing, true)
}

// IsMissing reports whether point i was unobserved.
func (s *Series) IsMissing(i int) bool {
	return s.Missing != nil && s.Missing[i]
}

// PointsPerDay returns the number of points in one day, or an error if the
// interval does not divide a day evenly.
func (s *Series) PointsPerDay() (int, error) {
	if s.Interval <= 0 || Day%s.Interval != 0 {
		return 0, fmt.Errorf("timeseries: interval %v does not divide a day", s.Interval)
	}
	return int(Day / s.Interval), nil
}

// PointsPerWeek returns the number of points in one week, or an error if the
// interval does not divide a week evenly.
func (s *Series) PointsPerWeek() (int, error) {
	if s.Interval <= 0 || Week%s.Interval != 0 {
		return 0, fmt.Errorf("timeseries: interval %v does not divide a week", s.Interval)
	}
	return int(Week / s.Interval), nil
}

// Weeks returns the number of complete weeks in the series.
func (s *Series) Weeks() int {
	ppw, err := s.PointsPerWeek()
	if err != nil {
		return 0
	}
	return s.Len() / ppw
}

// Slice returns a view of points [i, j). The returned series shares the
// underlying storage with s; its Start is shifted accordingly.
func (s *Series) Slice(i, j int) *Series {
	if i < 0 || j > s.Len() || i > j {
		panic(fmt.Sprintf("timeseries: slice [%d,%d) out of range 0..%d", i, j, s.Len()))
	}
	out := &Series{
		Name:     s.Name,
		Start:    s.TimeAt(i),
		Interval: s.Interval,
		Values:   s.Values[i:j],
	}
	if s.Missing != nil {
		out.Missing = s.Missing[i:j]
	}
	return out
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	out := &Series{Name: s.Name, Start: s.Start, Interval: s.Interval}
	out.Values = append([]float64(nil), s.Values...)
	if s.Missing != nil {
		out.Missing = append([]bool(nil), s.Missing...)
	}
	return out
}

// ErrEmpty is returned by statistics that are undefined on empty series.
var ErrEmpty = errors.New("timeseries: empty series")

// Mean returns the arithmetic mean of the observed values.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// Std returns the population standard deviation of the observed values.
func (s *Series) Std() float64 { return Std(s.Values) }

// Cv returns the coefficient of variation (std / mean), the dispersion
// measure used in Table 1. It returns NaN when the mean is zero.
func (s *Series) Cv() float64 {
	m := s.Mean()
	if m == 0 {
		return math.NaN()
	}
	return s.Std() / m
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs (0 for empty input).
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	return medianInPlace(tmp)
}

// MAD returns the median absolute deviation around the median, the robust
// dispersion measure used by the TSD MAD and historical MAD detectors.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return medianInPlace(dev)
}

// medianInPlace selects the median of xs using quickselect, reordering xs.
func medianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return quickselect(xs, n/2)
	}
	lo := quickselect(xs, n/2-1)
	// After quickselect, elements right of k are >= xs[k]; find the min of
	// the upper half for the even-length median.
	hi := xs[n/2]
	for _, x := range xs[n/2:] {
		if x < hi {
			hi = x
		}
	}
	return (lo + hi) / 2
}

// quickselect returns the k-th smallest element of xs, reordering xs.
func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case k == p:
			return xs[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return xs[k]
}

func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot to avoid quadratic behaviour on sorted data.
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi] = xs[hi], xs[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}
