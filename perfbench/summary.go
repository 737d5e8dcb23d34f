package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastQuartile summarizes repeated timings of the same work by the
// quartile on the fast side: Q3 of rates, Q1 of durations. Other load on a
// shared machine slows a run for seconds at a time and never speeds one
// up, so the fast-side quartile tracks the program while the median flips
// with the share of repetitions that load happened to hit.
// Unlike quartiles it interpolates between closest ranks only, so a run
// with few repetitions never reports a value outside the ones it measured.
func fastQuartile(xs []float64, higherIsFaster bool) float64 {
	if higherIsFaster {
		return quantileLinear(xs, 0.75)
	}
	return quantileLinear(xs, 0.25)
}

// quantileLinear interpolates the q-quantile between the closest ranks of
// xs (numpy's default rule). xs is not modified.
func quantileLinear(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// percentileNs returns the q-quantile (0 < q ≤ 1) of unsorted samples by
// nearest rank: the smallest sample with at least q of all samples at or
// below it. It sorts samples in place.
func percentileNs(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return sortedPercentile(samples, q)
}

// sortedPercentile is percentileNs over already-sorted samples.
func sortedPercentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
