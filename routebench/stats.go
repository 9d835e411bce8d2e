package main

import (
	"math"
	"sort"
)

// failedLatency stands in for a request that failed or was refused: it
// sorts above every real latency, so a failure always counts as missing
// any latency limit.
var failedLatency = math.Inf(1)

// sample is a set of observations (milliseconds, seconds, ...). Failed
// requests are recorded as failedLatency.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile q of s (0 < q <= 1); NaN when
// s is empty.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// median is the midpoint median (mean of the two middle values for an
// even count); NaN when s is empty.
func (s sample) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailQuantile picks the tail percentile a sample of n supports: p99
// when at least minBeyond samples lie beyond it, otherwise the highest
// percentile that still leaves minBeyond beyond (1 - minBeyond/n),
// never below the median. It returns 0 when n cannot support even a
// median with minBeyond samples beyond.
func tailQuantile(n int) float64 {
	if n < 2*minBeyond {
		return 0
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

// tail reports the tail percentile value and the quantile it used; the
// quantile is 0 (and the value the maximum) when the sample is too
// small for any tail with minBeyond samples beyond it.
func (s sample) tail() (value, q float64) {
	q = tailQuantile(len(s))
	if q == 0 {
		return s.quantile(1), 0
	}
	return s.quantile(q), q
}

// windowedTail splits s (in schedule order) into k contiguous windows
// and returns the median of the windows' tails, with the quantile the
// windows used. One host stall lands in one window, so it moves this
// estimate far less than the whole sample's tail; a slowdown the
// program causes shows in every window.
func (s sample) windowedTail(k int) (value, q float64) {
	if k < 1 || len(s)/k < 2*minBeyond {
		return s.tail()
	}
	var tails sample
	for w := 0; w < k; w++ {
		v, wq := s[w*len(s)/k : (w+1)*len(s)/k].tail()
		tails = append(tails, v)
		q = wq
	}
	return tails.median(), q
}

// failures counts the failedLatency entries.
func (s sample) failures() int {
	n := 0
	for _, v := range s {
		if math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

// quartiles returns the first and third quartiles by the "exclusive"
// method (Python's statistics.quantiles(values, n=4) default), the rule
// the benchmark's run-to-run spread is judged by.
func quartiles(values []float64) (q1, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return v[0], v[0]
	}
	// Integer arithmetic and clamping exactly as CPython's
	// statistics.quantiles(method="exclusive").
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(3)
}
