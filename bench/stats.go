package main

import (
	"math"
	"sort"
)

// sample is one reported number: the median of the per-pass (or per-run)
// values with the extremes seen; N is how many values, or for a percentile
// how many requests, stand behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func summarize(xs []float64, unit string) sample {
	lo, hi := minMax(xs)
	return sample{Value: median(xs), Unit: unit, Min: lo, Max: hi, N: len(xs)}
}

// percentile returns the q-quantile (0 < q < 1) of sorted nanosecond
// latencies by nearest rank, in microseconds.
func percentileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method) — the figure the benchmark contract bounds.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
