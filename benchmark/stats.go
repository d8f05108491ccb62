package main

import (
	"math"
	"sort"
)

// summary is how every repeated timing is reported: the median, the
// quartiles around it and the number of samples they were taken from.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of an
// ascending slice; q is in [0,1]. An empty slice yields 0.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func summarize(xs []float64) summary {
	s := sorted(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the tail value is one outlier, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether at
// least minBeyond samples lie beyond it. p95 therefore needs 200 samples,
// which is why the 300–600-iteration workloads report p95 and not p99.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted(xs)[rank-1], n-rank >= minBeyond
}
