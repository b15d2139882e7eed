package main

import (
	"slices"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// betterHalf is the statistic every per-slice measurement is reported
// by: the mean of the better half of the slices (the upper half where
// higher is better, the lower half where lower is). Whatever else the
// host runs only ever slows a slice down, so the worse half is where
// its interference collects, and over a busy minute the median slice
// drops by 10-20% where the better half drops by about 5%. Averaging
// the half, not reading one order statistic off it, is what keeps the
// lottery of heap layouts (see perturbHeap) from moving the result:
// measured over 8 same-code runs of ds-churn, it had the smallest
// range of the median, the 75th and 90th percentiles and the mean.
func betterHalf(xs []float64, higherBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	half := s[len(s)/2:]
	if !higherBetter {
		half = s[:(len(s)+1)/2]
	}
	sum := 0.0
	for _, x := range half {
		sum += x
	}
	return sum / float64(len(half))
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spread
// this tool prints is the one the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points over n+1 positions
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// bandMean estimates quantile q of sorted ns samples as the mean of the
// samples whose rank lies within ±half of q. Averaging a thin band of
// ranks instead of reading one order statistic keeps sub-clock-tick
// digits that a single integer sample cannot carry.
func bandMean(sorted []uint32, q, half float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	lo := int((q - half) * float64(n))
	hi := int((q+half)*float64(n)) + 1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		lo = hi - 1
	}
	sum := 0.0
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// latencyUs digests one slice's latency samples (ns) into p50 and p99
// in microseconds. Sorts in place.
func latencyUs(samples []uint32) (p50, p99 float64) {
	slices.Sort(samples)
	return bandMean(samples, 0.50, 0.005) / 1e3, bandMean(samples, 0.99, 0.001) / 1e3
}
