package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of raw
// samples: the smallest sample with at least p% of all samples at or below
// it. It sorts samples in place and returns 0 for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// beyond returns how many of n samples lie strictly above the p-th
// percentile's rank, the tail a reported percentile rests on.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// median returns the middle of xs (the mean of the two middle values for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sumOfMedians is the batch end-to-end metric: each app's repetitions are
// reduced to their median, and the medians are summed over the apps.
func sumOfMedians(reps map[string][]float64) float64 {
	var sum float64
	for _, xs := range reps {
		sum += median(xs)
	}
	return sum
}

// failureShare is failed ÷ attempted (0 when nothing was attempted).
func failureShare(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
