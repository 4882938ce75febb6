package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, which is how the benchmark's spread
// is judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2], true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / q2
}

// percentileSupported reports whether n samples can support percentile
// p (0 < p < 100): at least ten samples must lie beyond it, or the value
// is one sample's noise rather than a tail.
func percentileSupported(p float64, n int) bool {
	return n-nearestRank(p, n) >= 10
}

// nearestRank is the 1-based rank of the p-th percentile among n
// sorted samples. The epsilon keeps p/100*n from rounding up past an
// exact rank (99.9% of 10000 is 9990, not 9991).
func nearestRank(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// reportablePercentiles are the tail percentiles a timing is reported
// at, in increasing order, when the sample count supports them.
var reportablePercentiles = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest reportable percentile that n
// samples support, and false when not even the median is supported.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range reportablePercentiles {
		if percentileSupported(p, n) {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[nearestRank(p, len(s))-1]
}

// residualFrac is the share of the untraced host time that the layer
// self times do not account for: (untraced - sum(layers)) / untraced. A
// negative residual means the layers, measured under tracing, add up to
// more than the untraced run took.
func residualFrac(untraced float64, layers ...float64) float64 {
	sum := 0.0
	for _, l := range layers {
		sum += l
	}
	return (untraced - sum) / untraced
}

// seconds converts durations to float seconds for the statistics above.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// medianDuration is the median of ds as a duration.
func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(seconds(ds)) * float64(time.Second))
}
