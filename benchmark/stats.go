package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPercentile picks the highest of p99, p95, p90, p75 that is at most
// highest and still has at least ten samples beyond it among n, falling
// back to the median.
func tailPercentile(n int, highest float64) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if p <= highest && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// singleRunTail caps the tail of one run's samples: above p90 a few hundred
// samples leave the value to one collection or compaction landing inside
// the window or not (p95 of 590 batches repeated within ±30 % where p90
// repeated within ±12 %). A suite pools its repeats and goes to p99.
const singleRunTail = 90

// summary is a timing reported as a median and a supported tail.
type summary struct {
	n      int
	p50    float64
	tail   float64
	tailAt float64 // the percentile tail was taken at
}

func summarize(samples []float64, highest float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := tailPercentile(len(s), highest)
	return summary{n: len(s), p50: quantile(s, 50), tail: quantile(s, at), tailAt: at}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(v, n=4)
// (exclusive method), which is what the acceptance check uses.
func iqrShare(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	m := median(s)
	if n < 2 || m == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(m)
}
