package main

import (
	"math"
	"sort"
)

// tailLadder is the set of tail percentiles a timing may report, highest
// first. A timing reports the highest one with at least minBeyond
// samples above it, so the tail figure always rests on real samples
// rather than on the single slowest one.
var tailLadder = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := nearestRank(n, p)
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples of an n-sample set that lie strictly above
// the nearest-rank p-th percentile.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The tolerance keeps float error in p/100*n (99.9% of 10000 computes
// to 9990.000000000002) from pushing the rank up by one.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond samples beyond it and returns that percentile and its value.
// ok is false when even the median has fewer than minBeyond samples
// above it.
func tailPercentile(sorted []float64) (pct, value float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(len(sorted), p) >= minBeyond {
			return p, percentile(sorted, p), true
		}
	}
	return 0, 0, false
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (mean of the middle pair for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latency summarises one window of latency samples (ns): a replay, or
// one second of the open-loop schedule.
type latency struct {
	p50, p90, p99 float64
	n             int
}

func summarize(ns []float64) latency {
	s := sorted(ns)
	return latency{p50: percentile(s, 50), p90: percentile(s, 90), p99: percentile(s, 99), n: len(s)}
}

// medianLatency returns the median over windows of each percentile and
// the total sample count. Reporting the median window keeps one stalled
// window from setting the run's figure.
func medianLatency(ws []latency) latency {
	var p50, p90, p99 []float64
	var n int
	for _, w := range ws {
		if w.n == 0 {
			continue
		}
		p50, p90, p99 = append(p50, w.p50), append(p90, w.p90), append(p99, w.p99)
		n += w.n
	}
	return latency{p50: median(p50), p90: median(p90), p99: median(p99), n: n}
}
