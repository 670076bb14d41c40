package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric name and unit are well formed.
func validMetric(name, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	if !unitName.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", name, unit)
	}
	return nil
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentiles are the percentiles tried, highest first, by the tail
// rule.
var tailPercentiles = []float64{99, 90, 75, 50}

// tail applies the reporting rule for a timing's tail: the highest of
// tailPercentiles with at least minBeyond samples above it. When even the
// median lacks that many, the median is reported. It returns the value
// and the percentile used.
func tail(samples []float64) (float64, float64) {
	s := sorted(samples)
	for _, p := range tailPercentiles {
		i := rankIndex(len(s), p)
		if len(s)-1-i >= minBeyond {
			return s[i], p
		}
	}
	return median(s), 50
}

// rankIndex is the 0-based nearest-rank index of percentile p in n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median is the middle sample, or the mean of the two middle ones.
func median(samples []float64) float64 {
	s := sorted(samples)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles with the same method
// as Python's statistics.quantiles(values, n=4) (the "exclusive"
// method), which is how the spread of repeated runs is judged.
func quartiles(samples []float64) (float64, float64) {
	s := sorted(samples)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	q := func(k int) float64 {
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}
