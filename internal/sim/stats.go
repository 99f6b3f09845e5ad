package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Stats accumulates scalar samples and reports the summary statistics the
// paper's tables use (mean, standard deviation, min/max, mdev as reported
// by ping, percentiles).
type Stats struct {
	samples []float64
	sum     float64
}

// Add records one sample.
func (s *Stats) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
}

// AddDuration records a duration sample in milliseconds, the unit used by
// the paper's ping/jitter tables.
func (s *Stats) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of samples.
func (s *Stats) N() int { return len(s.samples) }

// Mean returns the sample mean (0 when empty).
func (s *Stats) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest sample (0 when empty).
func (s *Stats) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample (0 when empty).
func (s *Stats) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Stddev returns the population standard deviation.
func (s *Stats) Stddev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Mdev returns mean absolute deviation from the mean, matching the "mdev"
// column printed by ping (Tables 3 and 5 of the paper).
func (s *Stats) Mdev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ad float64
	for _, v := range s.samples {
		ad += math.Abs(v - mean)
	}
	return ad / float64(n)
}

// Percentile returns the p-th percentile (0..100) using nearest-rank.
func (s *Stats) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.samples...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// String summarises in ping's min/avg/max/mdev format.
func (s *Stats) String() string {
	return fmt.Sprintf("min/avg/max/mdev = %.3f/%.3f/%.3f/%.3f",
		s.Min(), s.Mean(), s.Max(), s.Mdev())
}

// Summary is the constant-size running form of Stats: count, sum, min
// and max, with no sample log. Long-lived per-event observers (one
// sample per scheduler wake) use it so memory stays flat however long
// the run; distributions belong in telemetry histograms.
type Summary struct {
	n        int
	sum      float64
	min, max float64
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
}

// AddDuration records a duration sample in milliseconds.
func (s *Summary) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of samples.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }
