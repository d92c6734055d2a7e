package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between closest ranks, the rule of numpy's default and of
// Python's statistics.quantiles(method="inclusive"). It returns NaN for an
// empty input and leaves values unchanged.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

// sum adds values up.
func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}
